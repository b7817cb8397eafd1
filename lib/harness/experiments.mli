(** Per-figure / per-table experiment runners (see DESIGN.md section 3).

    Figures 2-5 all derive from one microbenchmark sweep, so
    {!microbench_sweep} runs once and the four [figN_*] accessors render
    its views. Every runner is deterministic in [seed]. Durations are
    simulated nanoseconds: the paper measures 60 s windows, but LBench
    reaches steady state in well under a millisecond, so the default
    windows (set by {!Catalogue}) are 0.4-10 ms. *)

type sweep = {
  threads : int list;
  columns : string list;  (** lock names, paper legend order. *)
  cells : Lbench.result array array;
      (** [cells.(col).(row)] for column lock, row thread-count. *)
}

val params_summary : topology:Numa_base.Topology.t -> duration:int -> seed:int -> string

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

val abortable_sweep :
  ?locks:Lock_registry.abortable_entry list ->
  ?rollup:bool ->
  ?profile:bool ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  patience:int ->
  unit ->
  sweep
(** The Figure 6 data. *)

(** Views over a sweep; each returns (x, per-column values) rows. *)

val throughput_rows : sweep -> (int * float array) list
val misses_rows : sweep -> (int * float array) list
val fairness_rows : sweep -> (int * float array) list
val abort_rate_rows : sweep -> (int * float array) list

val low_contention : sweep -> sweep
(** Restrict to thread counts <= 16 (Figure 4). *)

val print_fig2 : sweep -> unit
val print_fig3 : sweep -> unit
val print_fig4 : sweep -> unit
val print_fig5 : sweep -> unit
val print_fig6 : sweep -> unit

(** Table 1: memcached-style KV store speedups over pthread at 1 thread. *)

type table = {
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
}

val table1 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  mix:Apps.Kv_workload.mix ->
  unit ->
  table

val table2 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** Table 2: allocator stress (mmicro), malloc-free pairs per millisecond. *)

val print_table : table -> unit

(** Ablations motivated by the paper's design discussion. *)

val ablation_handoff_bound :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** Sweep of [max_local_handoffs] (section 3.7): throughput and fairness
    of C-BO-MCS and C-TKT-MCS as the may-pass-local budget grows. Rows are
    bounds; the columns interleave throughput (Mops/s) and fairness
    (stddev %). *)

val ablation_hbo_tuning :
  topology:Numa_base.Topology.t ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** HBO parameter instability (section 4.2): the microbenchmark-tuned and
    application-tuned presets, each run on LBench and on the write-heavy
    KV workload. *)

val ablation_policy :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** The counted may-pass-local policy vs the time-budget policy suggested
    in section 2.1: throughput, fairness and migrations per variant. *)

val extension_blocking :
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** The blocking cohort lock C-BLK-BLK against the plain blocking mutex
    and C-BO-MCS on the write-heavy KV workload. *)

val extension_rw :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** The NUMA-aware reader-writer lock against a cohort mutex across
    write ratios. *)

val latency_p99_rows : sweep -> (int * float array) list
val print_fig5_latency : sweep -> unit

val topology_sensitivity :
  n_threads:int -> duration:int -> seed:int -> unit -> table
(** The cohort gain across machine shapes: UMA (negative control),
    2-socket x86, the paper's T5440, and a hypothetical 8-socket
    machine. *)

val hierarchy_comparison :
  n_threads:int -> duration:int -> seed:int -> unit -> table
(** The flat T5440 against the {!Numa_base.Topology.rack} preset (two
    racks of two sockets, three latency tiers): same cluster shape,
    different distance structure, so the cohort gain isolates the cost of
    cross-rack lock migration. *)

val cfg_for :
  Numa_base.Topology.t -> int list -> Cohort.Lock_intf.config
(** [base_cfg] widened so [max_threads] covers the largest thread count
    in a sweep — required for oversubscribed sweeps, a no-op for
    in-capacity ones. *)

val extension_bimodal :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** The bi-modal (alternating read-heavy / write-heavy) server scenario
    the paper's section 4.2 motivates. *)

val successor_comparison :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** The first paper-vs-successor table: MCS and C-BO-MCS against CNA
    (single-word compact NUMA-aware lock) and the partition ticket lock.
    Columns are throughput, remote transfers per acquisition, and
    distinct lock-metadata cache lines touched (from a profiled run —
    stats-only, so schedules match the unprofiled sweeps). *)

val collapse_run :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  Lbench.result
(** One saturation-collapse data point: the LBench-style loop with an
    explicit preemption model (quantum expiry at the pre-acquire and
    post-acquire checkpoints costs a full descheduling round of
    [(ceil(n/contexts) - 1) * 10us]), which makes oversubscription hurt
    the way a real scheduler does. In-capacity runs are untouched by the
    model; only work completed inside the measurement window counts
    (the post-window drain of blocked acquires still runs). Latency and
    miss metrics are [nan] — the experiment measures throughput,
    iterations, fairness and migrations — and [event_classes] holds the
    whole run's event ledger, drain included. *)

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

val print_collapse : topology:Numa_base.Topology.t -> sweep -> unit

val composition_matrix :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** LBench throughput for all 16 global x local compositions (rows are
    the global locks BO/TKT/MCS/CLH in order, columns the local locks) —
    the paper's generality claim, measured. *)
