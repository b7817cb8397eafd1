(** {!Numa_base.Runtime_intf.RUNTIME} over the simulation engine.

    [run] is {!Engine.run} with a stop flag derived from the deadline:
    [stopped] compares [Sim_mem.now ()] against it, which is a free
    effect, so polling frequency cannot perturb simulated time and runs
    stay deterministic. Barriers are built from a simulated cell
    (fetch-and-add + monitored wait), so they are charged like any other
    shared-memory rendezvous. [Engine.Thread_failure] is re-raised as
    {!Numa_base.Runtime_intf.Thread_failure}; [Engine.Deadlock]
    propagates unchanged. *)

include Numa_base.Runtime_intf.RUNTIME

(** The same runtime with the deadline as a hard end: [run ~stop_after]
    is {!Engine.run} with [~horizon:stop_after], so the run returns at
    the deadline with [threads_finished < n_threads] instead of letting
    every thread finish what it was doing, and {!Engine.run} unwinds the
    threads it leaves unfinished. Nothing after the deadline runs, so it
    suits a workload that counts only what happens before it; every
    whole-run statistic ([coherence], [interconnect], the event ledger)
    then covers the window alone. Without [stop_after] it is [run]. *)
module Windowed :
  Numa_base.Runtime_intf.RUNTIME
    with type stop_flag = stop_flag
     and type barrier = barrier

val event_classes : Engine.result -> Numa_base.Runtime_intf.event_class list
(** The run's event ledger as [run] reports it in [run_stats]; for
    callers of {!Engine.run} itself. *)
