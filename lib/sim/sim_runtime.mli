(** {!Numa_base.Runtime_intf.RUNTIME} over the simulation engine.

    [run ~stop_after:d] is {!Engine.run} with [~horizon:d]: the run ends
    at its deadline, returning with [threads_finished < n_threads] when
    threads were still busy, and {!Engine.run} unwinds the threads it
    leaves. Nothing after the deadline runs, so no event after it can
    change what happened before it, and every whole-run statistic
    ([coherence], [interconnect], the event ledger) covers the window
    alone. Without [stop_after] every thread runs to completion (torture
    campaigns, exploration). [stopped] compares [Sim_mem.now ()] against
    the deadline, which is a free effect, so polling frequency cannot
    perturb simulated time and runs stay deterministic. Barriers are
    built from a simulated cell (fetch-and-add + monitored wait), so they
    are charged like any other shared-memory rendezvous.
    [Engine.Thread_failure] is re-raised as
    {!Numa_base.Runtime_intf.Thread_failure}; [Engine.Deadlock]
    propagates unchanged. *)

include Numa_base.Runtime_intf.RUNTIME
