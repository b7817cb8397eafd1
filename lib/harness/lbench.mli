(** LBench: the paper's microbenchmark (section 4.1), on the simulated
    substrate.

    This is {!Bench_core.Make} instantiated over [Sim_mem]/[Sim_runtime]
    — see {!Bench_core} for the benchmark loop and the meaning of every
    [result] field. Simulation adds what the native substrate cannot
    measure: deterministic replay (fixed seed → exact counts) and
    coherence-miss reporting ([misses_per_cs] is a number here, [nan]
    natively). *)

type result = Bench_core.result = {
  lock_name : string;
  n_threads : int;
  duration_ns : int;
  iterations : int;
  throughput : float;
  per_thread : int array;
  fairness_stddev_pct : float;
  migrations : int;
  misses_per_cs : float;
  aborts : int;
  abort_rate : float;
  acquire_p50 : float;
  acquire_p99 : float;
  acquire_max : float;
  rollup : Numa_trace.Metrics.t option;
  profile : Numa_trace.Profile.t option;
      (** always [Some] here (the simulator measures coherence); the
          per-site table inside it is non-empty only with
          [~profile:true]. *)
  predicted : Numa_trace.Predict.t option;
  event_classes : Numa_base.Runtime_intf.event_class list;
}

include module type of Bench_core.Make (Numasim.Sim_mem) (Numasim.Sim_runtime)
