(* The simulation instance of the substrate-generic benchmark core. The
   historical [Lbench] name and API are preserved: every experiment,
   example and golden test keeps calling [Lbench.run] and reading
   [result] fields unchanged. *)

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
  predicted : Numa_trace.Predict.t option;
  event_classes : Numa_base.Runtime_intf.event_class list;
}

include Bench_core.Make (Numasim.Sim_mem) (Numasim.Sim_runtime)
