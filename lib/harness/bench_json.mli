(** Versioned benchmark artifacts ([BENCH_*.json]) and the regression
    gate over them.

    An artifact is a flat list of (experiment, lock, thread-count)
    entries, each carrying a metric map: the benchmark core's result
    fields plus, when the run captured a trace rollup, the
    {!Numa_trace.Metrics} fields. Artifacts contain no timestamps,
    hostnames or wall-clock values and are rendered deterministically,
    so two runs of the simulated benchmark with the same seed produce
    byte-identical files — the property [scripts/ci.sh] checks. *)

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

val write : string -> t -> unit
(** Pretty-rendered JSON with a trailing newline. It carries the schema,
    ["cohort-bench/3"], bumped on any entry/metric shape change; {!read}
    accepts no other. *)

val read : string -> (t, string) result

val key_of : entry -> string
(** An entry's key, ["experiment/lock/t<threads>"]: what two artifacts'
    entries are matched by. *)

val index : t -> (string, entry) Hashtbl.t
(** The artifact's entries by {!key_of}. *)

type comparison = {
  key : string;  (** {!key_of} of the compared entries. *)
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
    or metrics that could not be compared: a baseline entry missing from
    [current], a gated metric on one side only, or a NaN. A metric that
    neither entry carries (a table row's) is skipped silently. *)
