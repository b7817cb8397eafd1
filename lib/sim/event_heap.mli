(** The engine's pending-event queue: a three-tier calendar queue of
    timestamped events.

    Events with equal timestamps pop in insertion (FIFO) order, which
    makes the simulation fully deterministic: the pop order is the
    (time, insertion) order of the events, whatever the queue's
    internal shape.

    Near tier: times within about [4096] ns of the last popped time go
    into one-nanosecond FIFO buckets, found through an occupancy bitmap.
    Coarse tier: later times up to [2^18] ns (262 us) beyond the near
    window go into 128 FIFO buckets of [2048] ns, each of which cascades
    into the near buckets, in insertion order, once the window reaches
    its end. Overflow tier: still later times wait in a 4-ary min-heap
    ({!Far}) and move into their bucket once the coarse span reaches
    them. Every tier is O(1) per event except the overflow, which is
    O(log n).

    Precondition: every added time is at least the last popped time
    (and at least [0] before the first pop, or after {!clear}), and
    below [max_int]. The engine guarantees this: it never schedules an
    event before the current simulated time.

    The API is allocation-free on the hot path: {!add} and {!pop} cons
    nothing (growth of the backing arrays aside), and emptiness is
    signalled by the [min] field's sentinel rather than an option. Slots
    vacated by {!pop} and {!clear} are overwritten with the [dummy]
    payload, so dead payloads (closures holding continuations and lock
    state) are not retained by the backing arrays. *)

(** A 4-ary (time, insertion) min-heap: the overflow tier of the queue,
    and the reference it is tested against. Same contract as the queue, with
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
      (** time of the earliest event, or [max_int] when empty — an
          exception-free, allocation-free emptiness sentinel, read as a
          field load. *)
  mutable base : int;  (** the last popped time (0 before the first). *)
  mutable limit : int;
  mutable near_n : int;
  mutable coarse_n : int;
  tails : int array;
  bits : int array;
  sums : int array;
  ctails : int array;
  cmins : int array;
  cbits : int array;
  mutable next : int array;
  mutable pays : 'a array;
  mutable stimes : int array;
  mutable free : int;
  mutable hwm : int;
  far : 'a Far.t;
  dummy : 'a;
  adds : int array;
}
(** Private so that the engine's fast path reads [min] directly; every
    other field is internal. *)

val create : dummy:'a -> 'a t
(** [dummy] fills vacated and never-used slots. It must not retain
    anything worth collecting (use e.g. [ignore] or [fun () -> ()]).
    Allocates the 4096-bucket window (a 4096-word array) and the
    coarse tier (260 words) up front: create a queue once and {!clear}
    it for reuse. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:int -> 'a -> unit
(** O(1) within the near window and the coarse span, O(log n) beyond
    them; allocation-free (amortising growth).

    @raise Invalid_argument if [time] is below the last popped time (or
    below [0]) or is [max_int]; the queue is then left unchanged. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload. Allocation-free;
    O(1) plus a bitmap scan to the next non-empty bucket, O(1) per
    coarse event a cascade moves, and O(log n) per overflow event the
    coarse span reaches. Callers check {!is_empty} (or [min]) first.

    @raise Invalid_argument on an empty queue. *)

val tier_adds : 'a t -> int * int * int
(** How many {!add}s since {!create} or the last {!clear} went
    directly to the near, coarse and overflow tiers. Host-side counters:
    they describe the queue's cost, never the pop order. *)

val clear : 'a t -> unit
(** Empty the queue, blank every live payload slot with [dummy] and
    forget the last popped time and the {!tier_adds} counts: the queue
    is as new, but keeps its arrays. *)
