(** The substrate-generic core of LBench, the paper's microbenchmark
    (section 4.1).

    Each thread loops: acquire the central lock; execute a critical
    section that increments four integer counters on each of two distinct
    cache lines; release; then idle for a non-critical section of up to
    4 µs. Other workloads (the saturation-collapse experiment) run the
    same loop with their own constants and hooks: see {!workload}. The
    same functor body measures the simulated substrate
    (deterministic, with coherence statistics) and the native one (real
    domains, wall-clock). {!Lbench} is its simulation instance and the
    historical entry point; {!Native.Bench} is the native instance. *)

type result = {
  lock_name : string;
  n_threads : int;
  duration_ns : int;  (** measurement window (simulated or wall ns). *)
  iterations : int;  (** critical/non-critical section pairs completed. *)
  throughput : float;  (** iterations per second of the window. *)
  per_thread : int array;
  fairness_stddev_pct : float;
      (** stddev of per-thread throughput as % of mean (Figure 5). *)
  migrations : int;
      (** acquisitions whose (declared) cluster differs from the previous
          holder's. *)
  misses_per_cs : float;
      (** L2 coherence misses per CS (Figure 3); [nan] under the native
          runtime, which has no coherence instrumentation. *)
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
      (** trace-derived per-lock metrics (migration rate, cohort batch
          run lengths, hold-time quantiles); [Some] only when the run was
          started with [~rollup:true]. *)
  profile : Numa_trace.Profile.t option;
      (** coherence attribution rollup: [Some] on the simulated substrate
          (engine-global totals and interconnect stats always; the
          per-site table only when run with [~profile:true]), [None] on
          the native one. *)
  predicted : Numa_trace.Predict.t option;
      (** analytic throughput prediction for the point (doc/SIMULATOR.md
          "Model validation"): [Some] when the run was simulated, rolled
          up, and completed at least one iteration. Computed from the
          rollup, the engine-global interconnect stats and topology
          calibration only — never the per-site table — so it is
          identical with and without [~profile] and cannot perturb a
          schedule. *)
  event_classes : Numa_base.Runtime_intf.event_class list;
      (** the simulation engine's event ledger for the run: events by
          class, inlined and scheduled apart; [[]] on the native
          substrate. Printed by [--profile], never written to an
          artifact (the inlined/scheduled split depends on the engine
          fast path). *)
}

(** A critical section: LBench's four counters on each of two lines, or
    a pause of that many ns. *)
type cs = Counters | Pause of int

(** One thread's hooks: [before_acquire] runs before the acquire's
    latency clock starts; [granted ~waited] right after a grant that took
    [waited] ns, and [false] leaves the grant out of the iterations,
    migrations and latencies (its critical section and release still
    run). *)
type hooks = { before_acquire : unit -> unit; granted : waited:int -> bool }

(** A loop iteration: [before_acquire], acquire, [granted], the critical
    section, release, then an idle pause of [idle_min] +
    U\[0, [idle_spread]) ns. Thread [tid]'s PRNG is seeded
    [seed + tid * 7919 + salt], and [thread] makes its hooks from it
    before the first iteration. LBench is salt 13, [Counters], idle
    0 + U\[0, 4000), and hooks that count every grant. *)
type workload = {
  salt : int;
  cs : cs;
  idle_min : int;
  idle_spread : int;
  thread : tid:int -> Numa_base.Prng.t -> hooks;
}

module Make (M : Numa_base.Memory_intf.MEMORY) (RT : Numa_base.Runtime_intf.RUNTIME) : sig
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
  (** [~rollup:true] tees a bounded in-memory ring into [cfg.trace] for
      the run and summarises the captured window into [result.rollup].
      On the simulator this does not change lock behaviour (tracing is
      free in simulated time). [~profile:true] asks the runtime for
      per-site coherence attribution ([result.profile] then carries the
      site table); scheduling is unaffected either way. *)

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
  (** Like [run], but acquires with [try_acquire ~patience]; timed-out
      attempts count as aborts and the thread retries after its
      non-critical delay (keeping abort rates low, as in the paper's
      Figure 6 runs, takes a patience well above the queueing delay). *)

  val run_workload :
    workload ->
    ?name:string ->
    (module Cohort.Lock_intf.LOCK) ->
    topology:Numa_base.Topology.t ->
    cfg:Cohort.Lock_intf.config ->
    n_threads:int ->
    duration:int ->
    seed:int ->
    result
  (** Like [run ~rollup:true], but on [workload]'s loop. The result has
      no prediction: the analytic model is calibrated to LBench's. *)
end
(** [M] and [RT] must belong to the same substrate
    (e.g. [Sim_mem]/[Sim_runtime] or [Nat_mem]/[Nat_runtime]). *)
