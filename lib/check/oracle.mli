(** Property oracles, as a lock decorator.

    {!Make.wrap} turns any {!Cohort.Lock_intf.LOCK} into one that checks
    safety properties as it runs and raises {!Violation.Violation} (with
    invariant name and substrate timestamp) the moment one breaks:

    - {e mutual exclusion} / usage discipline (host [Atomic] owner word,
      sound on both substrates);
    - {e cohort-handoff legality}: a [Handoff_within_cohort] trace event
      requires some cohort thread to be blocked in [acquire], and under a
      counted may-pass-local policy at most [max_local_handoffs]
      consecutive local handoffs per batch;
    - {e FIFO}: for pure queue locks, acquires must happen in queue-join
      ([Enqueue] trace event) order;
    - {e intra-cluster FIFO}: for queue-reordering locks (CNA), acquires
      within each cluster must happen in that cluster's queue-join order
      — the guarantee that survives the cross-socket reordering;
    - {e GCR admission}: for the concurrency-restricted GCR wrappers,
      the event-counted active set ([Gcr_admit]/[Gcr_unpark] minus
      [Gcr_exit]) stays within [0, gcr_max_active], park/unpark pair up
      per thread, and a parked thread is promoted within a
      queue-position-proportional number of [gcr_rotate_every]-grant
      rotation periods (the starvation bound).

    The handoff and FIFO checks consume the lock's own trace stream (a
    sink teed into [cfg.trace] at [create]) and assume events arrive in
    linearisation order — true on the simulator, where emission is host
    code inside the emitting memory operation's engine event. Enable them
    only on a deterministic runtime; [me] is substrate-safe. *)

type checks = {
  me : bool;
  handoff : bool;
  fifo : bool;
  fifo_intra : bool;
  admission : bool;
}

val me_only : checks
(** Mutual exclusion + usage discipline only: safe everywhere. *)

val for_lock : string -> checks
(** Checks applicable to a registry lock by name: [handoff] for cohort
    locks (name starts with ["C-"]) and for CNA (its counted flush obeys
    the same starvation bound), [fifo] for the strict FIFO queue locks
    (TKT, MCS, CLH, PTL), [fifo_intra] for CNA, [admission] for the GCR
    wrappers (name starts with ["GCR-"]), [me] always. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  val wrap :
    ?checks:checks ->
    (module Cohort.Lock_intf.LOCK) ->
    (module Cohort.Lock_intf.LOCK)
  (** Violations raise {!Violation.Violation}; inside an engine-managed
      run this surfaces as the runtime's [Thread_failure]. Defaults to
      {!me_only}, which catches [release] on a handle that is not
      holding, [acquire] on a handle that already holds (no reentrancy),
      and either one observing another handle as holder. *)
end
