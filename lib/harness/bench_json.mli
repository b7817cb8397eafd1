(** Versioned benchmark artifacts ([BENCH_*.json]) and the regression
    gate over them.

    An artifact is a flat list of (experiment, lock, thread-count)
    entries, each carrying a metric map: the benchmark core's result
    fields plus, when the run captured a trace rollup, the
    {!Numa_trace.Metrics} fields. Artifacts contain no timestamps,
    hostnames or wall-clock values and are rendered deterministically,
    so two runs of the simulated benchmark with the same seed produce
    byte-identical files — the property [scripts/ci.sh] checks. *)

val schema_version : string
(** ["cohort-bench/3"]; bumped on any entry/metric shape change. Every
    artifact carries it, and {!read}/{!of_json} accept no other. *)

type entry = {
  experiment : string;  (** e.g. ["lbench"], ["lbench-abortable"]. *)
  lock : string;
  threads : int;
  metrics : (string * float) list;  (** [nan] encodes as JSON null. *)
}

type t = {
  substrate : string;  (** ["sim"] or ["native"]. *)
  seed : int;
  entries : entry list;
}

val make : substrate:string -> seed:int -> entry list -> t
val entry_of_result : experiment:string -> Bench_core.result -> entry

val to_json : t -> Numa_trace.Json.t
val of_json : Numa_trace.Json.t -> (t, string) result

val to_string : t -> string
(** Pretty-rendered with a trailing newline — the exact file contents. *)

val write : string -> t -> unit
val read : string -> (t, string) result

type comparison = {
  key : string;  (** "experiment/lock/t<threads>". *)
  metric : string;
  baseline : float;
  current : float;
  delta_pct : float;  (** signed; negative = slower than baseline. *)
}

val compare_artifacts :
  baseline:t ->
  current:t ->
  threshold_pct:float ->
  comparison list * string list
(** Regressions beyond [threshold_pct] on the gated (higher-is-better)
    metrics — currently throughput — plus non-fatal warnings for entries
    or metrics that could not be compared. *)
