(** The native implementation of {!Numa_base.Memory_intf.MEMORY} over
    [Atomic], for running the lock algorithms on real multicore OCaml.

    Cache-line placement hints are accepted and ignored (OCaml gives no
    portable control over object layout); waits are TTAS spins with
    [Domain.cpu_relax] escalating to short sleeps, which keeps waiters
    live even on machines with fewer cores than domains.

    Because portable thread pinning is unavailable, the NUMA cluster of a
    domain is declared, not discovered: it is the [~cluster] the domain
    passes to a lock's [register], and the substrate itself keeps no
    thread identity. *)

include Numa_base.Memory_intf.MEMORY

val site_creations : unit -> (string * int) list
(** How many lines each allocation site has created since process start
    (both [line ?name] and [cell' ?name]; unlabelled sites count under
    [""]). Sorted by site label. The native stand-in for the simulator's
    per-site coherence profiler: real per-access attribution would need
    hardware counters, but creation counts are enough to audit that a
    lock labels everything it allocates. *)
