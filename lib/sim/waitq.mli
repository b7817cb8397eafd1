(** Per-line waiter queue: singly-linked FIFO with tail pointer.

    One of these lives on every {!Coherence.line}; see [waitq.ml] for
    the design rationale (O(1) park, one-load zero-waiter writes, no
    allocation). Waiters wake in registration order, exactly as the
    engine's former list-based implementation did. *)

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

type t = {
  mutable head : waiter;
  mutable tail : waiter;
  mutable epoch : int;
      (** engine run that owns the contents; a mismatch means the queue
          is logically empty (stale waiters from a finished run). *)
  mutable changed : bool;
      (** set by a store payload that physically changes a value on the
          line; read and cleared by the engine's wake check, which walks
          the queue only when it was set. *)
}

val create : unit -> t
val is_empty : t -> bool

val clear : t -> unit
(** Drop all waiters and disown the queue (end-of-run hygiene: parked
    closures keep whole fiber stacks alive otherwise). *)

val reset : t -> epoch:int -> unit
(** Drop stale contents and hand the queue to run [epoch]. *)

val push : t -> waiter -> unit
(** Append in O(1). The waiter's [next] must be [nil]. *)

val wake : t -> unit
(** Scan in registration order, unlinking inactive waiters and waiters
    whose [check] deactivated them. Called only after a store that changed
    a value on the line. *)
