(** {!Numa_base.Runtime_intf.RUNTIME} over the simulation engine.

    [run ~stop_after:d] is {!Engine.run} with [~horizon:d]: the run ends
    at its deadline, returning with [threads_finished < n_threads] when
    threads were still busy, and {!Engine.run} unwinds the threads it
    leaves. Nothing after the deadline runs, so no event after it can
    change what happened before it, and every whole-run statistic (the
    engine's [Profile.t], the event ledger) covers the window alone.
    Without [stop_after] every thread runs to completion (torture
    campaigns, exploration). The stop flag is the deadline ([max_int]
    without one), and [stopped] compares [Sim_mem.now ()] against it, a
    free effect, so polling frequency cannot perturb simulated time and
    runs stay deterministic. {!Engine.Thread_failure} is
    {!Numa_base.Runtime_intf.Thread_failure}, so it propagates as it is,
    and so does {!Engine.Deadlock}. *)

include Numa_base.Runtime_intf.RUNTIME
