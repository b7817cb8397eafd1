(** The native implementation of {!Numa_base.Memory_intf.MEMORY} over
    [Atomic], for running the lock algorithms on real multicore OCaml.

    Cache-line placement hints are accepted and ignored (OCaml gives no
    portable control over object layout): a line is only its allocation-
    site label, which [line_site] reads back, and nothing is counted per
    line or per access. Waits are TTAS spins with
    [Domain.cpu_relax] escalating to short sleeps, which keeps waiters
    live even on machines with fewer cores than domains.

    Because portable thread pinning is unavailable, the NUMA cluster of a
    domain is declared, not discovered: it is the [~cluster] the domain
    passes to a lock's [register], and the substrate itself keeps no
    thread identity. *)

include Numa_base.Memory_intf.MEMORY

