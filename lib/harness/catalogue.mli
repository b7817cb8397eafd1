(** The experiment catalogue: one entry per experiment of the evaluation
    (Figures 2-6, Tables 1-2, the ablations and extensions), each a list
    of {!Experiments.point}s plus a render of their rows into tables
    (README "The catalogue"). Every table is also written as CSV under
    [--csv-dir]: the figures and Tables 1 and 2 keep their historical
    names ([fig2] .. [fig6], [table1_<N>pct_sets], [table2],
    [collapse]), companions add a suffix ([fig5-p99],
    [fig6-abort-rate]), and every other table is named after its entry.
    [bin/repro.exe] builds one subcommand per entry of {!commands}, its
    flags from the entry's {!knob}s. *)

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
  body : body;
}

(** An experiment is its points and a render of their rows into its
    tables, each named by its CSV. The render runs nothing: ratios,
    speedups, companion tables and [--check] gates come from the rows
    (profile and predict print a report and return no table). *)
and body =
  | Points of
      (env -> params -> Experiments.point list)
      * (params ->
        (Experiments.point * Experiments.row) list ->
        (string * Experiments.table) list)
  | Plan of bool  (** the fold over {!plan}; [quick] if true. *)

val commands : entry list
(** The [repro] subcommands, in help order; the last two are [all] and
    [quick], the folds over {!plan}: each step takes the run's topology,
    window and seed, then its [in_all] and, under [quick], its [quick]
    adjustments. Under [quick] the default window is 2 ms. *)

val plan : entry list
(** Every step [repro all] and [repro quick] run, in order. It
    includes the plan-only [rack] and [oversub] LBench sweeps. *)

val run :
  ?csv_dir:string ->
  ?trace:string ->
  ?emit:string ->
  ?profile:bool ->
  entry ->
  params ->
  unit
(** One invocation: the parameter banner, then, for the entry or each
    step of a plan, its points run in order, rendered, printed and
    written as CSVs, and under [--profile] each lock at its largest
    thread count. Then the trace file ([.jsonl] streams JSONL, anything
    else writes a Chrome trace) and the artifact: the LBench rows of
    entries that take [--emit-bench-json], then one entry per printed
    table row, keyed (CSV name, x label, x), its cells the metrics.
    Rollups are on under [emit]. *)
