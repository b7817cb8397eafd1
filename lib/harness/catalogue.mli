(** The experiment catalogue: one entry per experiment of the evaluation
    (Figures 2-6, Tables 1-2, the ablations and extensions). An entry
    holds its experiment's runner; only what the benchmark, a test or
    several entries share lives in {!Experiments}. Every figure and
    table an entry prints is one {!Experiments.table}, which the
    catalogue also writes as CSV under [--csv-dir]: Tables 1 and 2 and
    the figures keep their historical names ([fig2] .. [fig6],
    [table1_<N>pct_sets], [table2], [collapse]), companions add a suffix
    ([fig5-p99], [fig6-abort-rate]), and every other table is named
    after its entry ([fig4], [rack], [oversub], [ablation-handoff],
    [matrix], ...).
    [bin/repro.exe] builds one subcommand per entry of {!commands}, its
    flags from the entry's {!knob}s; [repro all] and [repro quick] both
    fold over {!plan}. *)

type params = {
  topology : Numa_base.Topology.t;
  threads : int list;
  n_threads : int;
  duration : int;  (** simulated ns per data point. *)
  seed : int;
  patience : int;  (** ns. *)
  mixes : Apps.Kv_workload.mix list;
  locks : string list;
  check : bool;
}

(** What a run observes: the trace sink its locks write to, whether
    points carry metric rollups, the [--profile] printer, and the CSV
    directory. *)
type env = {
  sink : Numa_trace.Sink.t;
  rollup : bool;
  profile : bool;
  csv_dir : string option;
}

(** A sweep carries the artifact experiment its entries are filed under;
    a table, the name of its CSV file. Every table an entry prints,
    companions included, is one [Table] output, written as [NAME.csv]
    under [--csv-dir]. *)
type output =
  | Sweep of string * Experiments.sweep
  | Table of string * Experiments.table

(** The command-line knobs an entry exposes. *)
type knob =
  | Topology
  | Threads
  | N_threads of string  (** doc. *)
  | Duration
  | Seed
  | Patience
  | Mix
  | Locks of string * string list  (** doc, accepted names. *)
  | Check of string * (params -> string option)
      (** doc, and what the gate needs that a run's params lack, if
          anything: a usage error, found before anything runs. *)
  | Csv
  | Trace
  | Emit
  | Profile
  | Fastpath  (** the engine fast path, on or off (schedule-invisible). *)

type entry = {
  name : string;
  doc : string;
  knobs : knob list;
  defaults : params;  (** standalone defaults. *)
  in_all : params -> params;  (** adjustments as a step of the plan. *)
  quick : params -> params;  (** further adjustments under [repro quick]. *)
  run : env -> params -> output list;  (** run and print. *)
}

val commands : entry list
(** The [repro] subcommands, in help order; the last two are
    [all ~quick:false] and [all ~quick:true]. *)

val plan : entry list
(** Every step [repro all] and [repro quick] run, in order. It
    includes the plan-only [rack] and [oversub] LBench sweeps. *)

val all : quick:bool -> entry
(** The fold over {!plan}, named [all], or [quick] under [quick]: each
    step takes the run's topology, window and seed, then its [in_all]
    and, if [quick], its [quick] adjustments. Under [quick] the default
    window is 2 ms. *)

val run :
  ?csv_dir:string ->
  ?trace:string ->
  ?emit:string ->
  ?profile:bool ->
  entry ->
  params ->
  unit
(** One invocation: prints the parameter banner, runs the entry, then
    lands the trace file ([.jsonl] streams JSONL, anything else writes a
    Chrome trace) and the cohort-bench artifact of its sweeps. Rollups
    are on under [emit]. *)

val rw_run :
  use_rw:bool ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  write_ratio:float ->
  duration:int ->
  seed:int ->
  float
(** One [ext-rw] cell: threads read or (with probability [write_ratio])
    write one shared cell under C-RW-WP ([use_rw]) or the C-BO-MCS
    mutex. The run ends at [duration] and counts the operations
    completed before it, per second. *)
