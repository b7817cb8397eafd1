(** Per-line waiter queue: singly-linked FIFO with tail pointer.

    A {!Coherence.line} starts out sharing {!none}, the one empty queue
    that is never written, and gets a queue of its own from
    [Engine.add_waiter] the first time a fiber parks on it; see
    [waitq.ml] for the design rationale (O(1) park, one-load zero-waiter
    writes, no allocation past the first park). Waiters wake in
    registration order, exactly as the engine's former list-based
    implementation did. *)

type waiter = {
  mutable active : bool;
  check : unit -> unit;
      (** called by {!wake} while [active]; a waiter that wakes clears
          [active], which unlinks it. *)
  mutable next : waiter;  (** link field, owned by the queue; set [nil]. *)
}

val nil : waiter
(** Sentinel terminating every chain ([==]-compared, never scanned).
    Use as the [next] of a freshly built waiter. *)

type t = private {
  mutable head : waiter;
  mutable tail : waiter;
  mutable epoch : int;
      (** engine run that owns the contents; a mismatch means the queue
          is logically empty (stale waiters from a finished run). *)
  mutable changed : bool;
      (** set by {!note_change} when a store payload physically changes
          a value on the line; read and cleared by {!take_change} in the
          engine's wake check, which walks the queue only when it was
          set. *)
}

val none : t
(** The queue of every line nobody has parked on: empty, epoch
    [min_int], [changed] false — and never written, as {!note_change}
    skips it and the other writers are only handed a line's own queue. *)

val create : unit -> t
(** A line's own queue, empty and owned by no run. *)

val is_empty : t -> bool

val clear : t -> unit
(** Drop all waiters and disown the queue (end-of-run hygiene: parked
    closures keep whole fiber stacks alive otherwise). *)

val reset : t -> epoch:int -> unit
(** Drop stale contents and hand the queue to run [epoch]. *)

val push : t -> waiter -> unit
(** Append in O(1). The waiter's [next] must be [nil]. *)

val note_change : t -> unit
(** A store payload changed a value on the queue's line: set [changed],
    unless the queue is {!none} — a line without a queue of its own has
    no waiter to walk. *)

val take_change : t -> bool
(** [changed], cleared. *)

val wake : t -> unit
(** Scan in registration order, unlinking inactive waiters and waiters
    whose [check] deactivated them. Called only after a store that changed
    a value on the line. *)
