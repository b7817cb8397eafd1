(** The experiment runners that more than one caller shares (see
    DESIGN.md section 3): the LBench and collapse sweeps, Tables 1 and 2,
    and the KV-store run the KV ablations and extensions build on. Each
    experiment's own runner lives in its {!Catalogue} entry.

    Figures 2-5 all derive from one microbenchmark sweep, so
    {!microbench_sweep} runs once and each figure is a {!series} view of
    it. Every runner is deterministic in [seed]. Durations are simulated
    nanoseconds: the paper measures 60 s windows, but LBench reaches
    steady state in well under a millisecond, so the default windows (set
    by {!Catalogue}) are 0.4-10 ms. *)

type sweep = {
  threads : int list;
  columns : string list;  (** lock names, paper legend order. *)
  cells : Lbench.result array array;
      (** [cells.(col).(row)] for column lock, row thread-count. *)
}

(** One printed figure or table: what {!Catalogue} prints, and writes as
    CSV under [--csv-dir]. *)
type table = Report.table = {
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
  t_fmt : float -> string;
}

val cfg_for :
  Numa_base.Topology.t -> int list -> Cohort.Lock_intf.config
(** The default config for the topology's clusters, with [max_threads]
    covering its contexts and the largest thread count in a sweep —
    required for oversubscribed sweeps, a no-op for in-capacity ones. *)

val grid :
  threads:int list ->
  name:('lock -> string) ->
  'lock list ->
  ('lock -> int -> Lbench.result) ->
  sweep
(** The (lock x thread count) sweep: [run lock n] is one cell, and the
    cells run lock by lock, thread counts in order. *)

val microbench_sweep :
  ?locks:Lock_registry.entry list ->
  ?rollup:bool ->
  ?profile:bool ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  sweep
(** The Figure 2/3/4/5 data: LBench for every (lock, thread-count).
    [~rollup:true] fills each cell's [result.rollup] with trace-derived
    metrics; [~profile:true] fills each cell's [result.profile] site
    table with per-site coherence attribution (see
    {!Bench_core.Make.run}). *)

val throughput_rows : sweep -> (int * float array) list
(** (thread count, per-column throughput) rows. *)

val series :
  title:string -> fmt:(float -> string) -> (Lbench.result -> float) -> sweep ->
  table
(** One metric of every cell, rows by thread count, one column per lock. *)

val low_contention : sweep -> sweep
(** Restrict to thread counts <= 16 (Figure 4). *)

(** {1 The KV store} *)

type kv_store
(** One populated memcached-style store that a table's cells share. *)

val kv_keys : int

val kv_store : unit -> kv_store

val kv_run :
  kv_store ->
  make_workload:(tid:int -> Apps.Kv_workload.t) ->
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  float
(** One KV-store run behind the lock (the store reset first, so cells are
    independent): [n_threads] server threads draw requests from
    [make_workload ~tid], fed by a fixed 32-fiber client. Operations per
    simulated second. *)

val kv_ops_per_sec :
  kv_store ->
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  mix:Apps.Kv_workload.mix ->
  float
(** {!kv_run} on a fixed get/set mix. *)

(** {1 Tables 1 and 2} *)

val table1 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  mix:Apps.Kv_workload.mix ->
  unit ->
  table
(** Table 1: memcached-style KV store speedups over pthread at 1 thread. *)

val table2 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** Table 2: allocator stress (mmicro), malloc-free pairs per millisecond. *)

val mmicro_pairs_per_ms :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  float
(** One Table 2 cell: the run ends at [duration] and counts the
    malloc-free pairs completed before it, per millisecond. *)

(** {1 Saturation collapse} *)

val collapse_workload :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  Bench_core.workload * Cohort.Lock_intf.config
(** The saturation-collapse point's loop and lock config: a 150 ns
    critical section, 200 ns + U\[0, 300) ns idle and an explicit
    preemption model as its hooks (quantum expiry at the pre-acquire and
    post-grant checkpoints costs a descheduling round of
    [(ceil(runnable/contexts) - 1) * 10us], where GCR-parked threads are
    not runnable), which makes oversubscription hurt the way a real
    scheduler does. In-capacity runs are untouched by the model. The
    config tees the model's park observer into the entry's trace sink.
    Fresh state per call: one point per value. *)

val collapse_run :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  Lbench.result
(** One saturation-collapse data point: {!collapse_workload} on
    {!Lbench.run_workload}. Like every LBench point it ends at
    [duration] and counts only the grants inside it; the whole-run
    fields (the profile's coherence and interconnect totals, the rollup,
    [event_classes], [queue_tiers]) cover the window too. The result
    carries acquire latencies and the trace rollup, but no prediction:
    the analytic model is calibrated to LBench. [misses_per_cs] is the
    window's coherence misses per counted grant. *)

val collapse_sweep :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  sweep
(** {!collapse_run} for every (lock, thread-count); defaults to
    {!Lock_registry.collapse_locks}. *)
