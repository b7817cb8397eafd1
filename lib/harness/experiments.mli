(** The points of the evaluation (DESIGN.md section 3): a run is a
    {!point}, {!run_point} is the one function that runs a simulation,
    and the LBench and collapse sweeps and Table 1 are wrappers over
    points. Every point is deterministic in its seed. Durations are
    simulated ns: LBench reaches steady state in well under a
    millisecond, so the paper's 60 s windows become 0.4-10 ms. *)

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

type kv_store
(** One populated memcached-style store that a table's KV points share;
    each KV run resets it first, so cells are independent. *)

val kv_store : unit -> kv_store

(** {1 Points} *)

type lock = (module Cohort.Lock_intf.LOCK)

(** What a point runs. A KV point serves [n_threads] server threads fed
    by a fixed 32-fiber client (bimodal: read- and write-heavy phases of
    500 requests); mmicro is Table 2's allocator stress; RW shares one
    cell under C-RW-WP ([use_rw]) or the C-BO-MCS mutex. *)
type workload =
  | Lbench of { lock : lock; rollup : bool; profile : bool }
  | Abortable of {
      lock : (module Cohort.Lock_intf.ABORTABLE_LOCK);
      patience : int;
      rollup : bool;
    }
  | Collapse of lock  (** {!collapse_workload}. *)
  | Kv_mix of {
      lock : lock;
      store : kv_store Lazy.t;
      mix : Apps.Kv_workload.mix;
    }
  | Kv_bimodal of { lock : lock; store : kv_store Lazy.t }
  | Mmicro of lock
  | Rw of { use_rw : bool; write_ratio : float }

type point = {
  experiment : string;
  lock : string;  (** display name ({!lock} is an implementation). *)
  n_threads : int;
  topology : Numa_base.Topology.t;
  duration : int;
  seed : int;
  cfg : Cohort.Lock_intf.config;  (** tweaks and trace sink applied. *)
  workload : workload;
}

(** LBench-family entries are {!Bench_json.entry_of_result}; KV and RW
    ones hold ["throughput"] (ops per sim s), mmicro ones ["pairs_per_ms"]. *)
type row = { entry : Bench_json.entry; result : Lbench.result option }

val run_point : point -> row
(** The run ends at [duration] and counts only what completes inside
    it. *)

val run_points : point list -> (point * row) list

val lock_points :
  ?cfg:(Lock_registry.entry -> int -> Cohort.Lock_intf.config) ->
  ?by_thread:bool ->
  experiment:string ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  Lock_registry.entry list ->
  (Lock_registry.entry -> workload) ->
  point list
(** Each lock's [workload] at each thread count, lock by lock (or, under
    [by_thread], count by count). [cfg] defaults to the lock's tweak of
    {!cfg_for} the count alone. *)

val at : (point * row) list -> string -> int -> row
(** The row of a lock at a thread count. *)

val metric : string -> row -> float

val lock_table :
  title:string ->
  ?fmt:(float -> string) ->
  locks:string list ->
  threads:int list ->
  (row -> float) ->
  (point * row) list ->
  table
(** A row per thread count, a column per lock (default two decimals). *)

(** {1 The sweeps and KV speedup tables} *)

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
(** The Figure 2/3/4/5 data: LBench for every (lock, thread-count), with
    [rollup] and the [profile] site table as in {!Bench_core.Make.run}. *)

val collapse_workload :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  Bench_core.workload * Cohort.Lock_intf.config
(** The saturation-collapse point's loop and lock config: a 150 ns
    critical section, 200 ns + U\[0, 300) ns idle and the preemption
    model of doc/SIMULATOR.md as its hooks, which leave in-capacity runs
    untouched. The config tees the model's park observer into the
    entry's trace sink. Fresh state per call: one point per value. *)

val collapse_run :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  Lbench.result
(** One saturation-collapse point. It ends at [duration] and counts only
    the grants inside it; the whole-run fields (profile totals, rollup,
    [event_classes], [queue_tiers]) cover the window too. It carries no
    prediction: the analytic model is calibrated to LBench. *)

val collapse_sweep :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  sweep
(** {!collapse_run} for every (lock, thread-count). *)

val kv_points :
  ?base_threads:int ->
  experiment:string ->
  locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  (Lock_registry.entry -> workload) ->
  point list
(** {!lock_points} [~by_thread:true], after the untraced speedup baseline
    (pthread at [base_threads], default 1) unless a cell is it. *)

val kv_table :
  title:string ->
  ?base_threads:int ->
  locks:string list ->
  threads:int list ->
  (point * row) list ->
  table
(** {!kv_points}' rows as speedups over the baseline. *)

val table1_title : Apps.Kv_workload.mix -> string

val table1 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  mix:Apps.Kv_workload.mix ->
  unit ->
  table
(** Table 1: KV store speedups over pthread at 1 thread; one store. *)
