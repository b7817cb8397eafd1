(** Test-and-test-and-set lock with Fibonacci backoff — the paper's
    "Fib-BO" baseline from the memcached and malloc experiments
    (Tables 1-2): {!Cohort.Bo_lock.Make.Tatas} with the slower backoff
    growth curve, its lock word labelled ["fibbo.state"]. *)

module Make (_ : Numa_base.Memory_intf.MEMORY) : Cohort.Lock_intf.LOCK
