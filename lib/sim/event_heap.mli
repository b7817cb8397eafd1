(** The engine's pending-event queue: a two-tier calendar queue of
    timestamped events.

    Events with equal timestamps pop in insertion (FIFO) order, which
    makes the simulation fully deterministic: the pop order is the
    (time, insertion) order of the events, whatever the queue's
    internal shape.

    Times within [4096] ns of the last popped time go into
    one-nanosecond FIFO buckets, found through an occupancy bitmap;
    later ones wait in a 4-ary min-heap ({!Far}) and move into their
    bucket once the window reaches them.

    Precondition: every added time is at least the last popped time
    (and at least [0] before the first pop, or after {!clear}), and
    below [max_int]. The engine guarantees this: it never schedules an
    event before the current simulated time.

    The API is allocation-free on the hot path: {!add} and {!pop} cons
    nothing (growth of the backing arrays aside), and emptiness is
    signalled by the {!min_time} sentinel rather than an option. Slots
    vacated by {!pop} and {!clear} are overwritten with the [dummy]
    payload, so dead payloads (closures holding continuations and lock
    state) are not retained by the backing arrays. *)

(** A 4-ary (time, insertion) min-heap: the far tier of the queue, and
    the reference it is tested against. Same contract as the queue, with
    no precondition on times beyond [< max_int]. [add] and [pop] are
    O(log n). *)
module Far : sig
  type 'a t

  val create : dummy:'a -> 'a t
  val size : 'a t -> int
  val is_empty : 'a t -> bool
  val add : 'a t -> time:int -> 'a -> unit
  val min_time : 'a t -> int
  val pop : 'a t -> 'a
  val clear : 'a t -> unit
end

type 'a t = private {
  mutable min : int;
      (** time of the earliest event, or [max_int] when empty: what
          {!min_time} returns, readable as a field load. *)
  mutable base : int;  (** the last popped time (0 before the first). *)
  mutable n : int;
  mutable near_n : int;
  tails : int array;
  bits : int array;
  sums : int array;
  mutable next : int array;
  mutable pays : 'a array;
  mutable free : int;
  mutable hwm : int;
  far : 'a Far.t;
  dummy : 'a;
}
(** Private so that the engine's fast path reads [min] directly; every
    other field is internal. *)

val create : dummy:'a -> 'a t
(** [dummy] fills vacated and never-used slots. It must not retain
    anything worth collecting (use e.g. [ignore] or [fun () -> ()]).
    Allocates the 4096-bucket window (a 4096-word array) up front:
    create a queue once and {!clear} it for reuse. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:int -> 'a -> unit
(** O(1) within the window, O(log n) beyond it; allocation-free
    (amortising growth).

    @raise Invalid_argument if [time] is below the last popped time (or
    below [0]) or is [max_int]; the queue is then left unchanged. *)

val min_time : 'a t -> int
(** Time of the earliest event, or [max_int] when the queue is empty —
    an exception-free, allocation-free emptiness sentinel. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload. Allocation-free;
    O(1) plus a bitmap scan to the next non-empty bucket, and O(log n)
    per far event the window reaches. Callers check {!is_empty} (or
    {!min_time}) first.

    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Empty the queue, blank every live payload slot with [dummy] and
    forget the last popped time: the queue is as new, but keeps its
    arrays. *)
