(** {!Numa_base.Runtime_intf.RUNTIME} over real domains.

    [run] spawns one [Domain] per thread, hands its body the cluster
    [Topology.cluster_of_thread] assigns (the body passes it on to the
    locks' [register]), and joins them all. [stop_after] is served by the
    spawning thread sleeping and then raising the stop flag, a [Nat_mem]
    cell — bodies must poll [stopped] to terminate. An exception escaping
    any body raises the flag too, so the other threads wind down, and is
    re-raised as {!Numa_base.Runtime_intf.Thread_failure} after all
    domains have been joined.

    Oversubscription: [n_threads] beyond the topology's hardware contexts
    is accepted — surplus tids wrap via [Topology.context_of_thread] and
    are given the wrapped context's cluster. One [Domain] is still spawned
    per logical thread (the OS multiplexes them), so keep native
    oversubscription modest; thousands-of-threads sweeps belong on the
    simulated runtime. *)

include Numa_base.Runtime_intf.RUNTIME
