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
  duration_ns : int;  (** simulated measurement window. *)
  iterations : int;  (** critical/non-critical section pairs completed. *)
  throughput : float;  (** iterations per simulated second. *)
  per_thread : int array;
  fairness_stddev_pct : float;
      (** stddev of per-thread throughput as % of mean (Figure 5). *)
  migrations : int;
      (** acquisitions whose cluster differs from the previous holder's. *)
  misses_per_cs : float;  (** L2 coherence misses per CS (Figure 3). *)
  aborts : int;  (** abortable runs only. *)
  abort_rate : float;  (** aborts / attempts. *)
  acquire_p50 : float;
      (** median successful-acquire latency, ns (log-bucketed histogram
          upper bound, ~2x resolution). *)
  acquire_p99 : float;
      (** 99th-percentile acquire latency, ns — tail waiting time, the
          per-acquisition face of the Figure 5 fairness story. *)
  acquire_max : float;
  rollup : Numa_trace.Metrics.t option;
      (** trace-derived per-lock metrics; [Some] only with
          [~rollup:true]. *)
  profile : Numa_trace.Profile.t option;
      (** coherence attribution rollup — always [Some] here (the
          simulator measures coherence); the per-site table inside it is
          non-empty only with [~profile:true]. *)
  predicted : Numa_trace.Predict.t option;
      (** analytic throughput prediction; [Some] whenever the run rolled
          up and completed at least one iteration (see {!Bench_core}). *)
  event_classes : Numa_base.Runtime_intf.event_class list;
      (** the engine's event ledger for the run (see {!Bench_core}). *)
}

val run :
  ?name:string ->
  ?rollup:bool ->
  ?profile:bool ->
  (module Cohort.Lock_intf.LOCK) ->
  topology:Numa_base.Topology.t ->
  cfg:Cohort.Lock_intf.config ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  result

val run_abortable :
  ?name:string ->
  ?rollup:bool ->
  ?profile:bool ->
  (module Cohort.Lock_intf.ABORTABLE_LOCK) ->
  topology:Numa_base.Topology.t ->
  cfg:Cohort.Lock_intf.config ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  patience:int ->
  result
(** Like {!run}, but acquires with [try_acquire ~patience]; timed-out
    attempts count as aborts and the thread retries after its
    non-critical delay (keeping abort rates low, as in the paper's
    Figure 6 runs, requires a patience comfortably above the typical
    queueing delay). *)
