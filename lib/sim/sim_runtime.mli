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

val event_classes : Engine.result -> Numa_base.Runtime_intf.event_class list
(** The run's event ledger as [run] reports it in [run_stats]; for
    callers of {!Engine.run} itself. *)
