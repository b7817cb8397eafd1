module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module Bo = Cohort.Bo_lock.Make (M)

  include Bo.Tatas (struct
    let name = "Fib-BO"
    let site = "fibbo.state"
    let policy = Cohort.Backoff.Fibonacci
  end)
end
