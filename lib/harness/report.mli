(** Plain-text table/series rendering and CSV export for the experiment
    harness, and the per-result reports of [--profile] and [repro
    predict]. Output mirrors the paper's figures (series over thread
    counts, one column per lock) and tables (rows per thread count). *)

val fmt_si : float -> string
(** Human units: 6400000. -> "6.40M", 497000. -> "497.0k". *)

val fmt_fixed2 : float -> string
val fmt_fixed1 : float -> string

(** One printed figure or table. *)
type table = {
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
      (** (x, one value per column) rows; [nan] cells print as "-". *)
  t_fmt : float -> string;  (** cell format. *)
}

val print_series : table -> unit
(** Aligned text table under its title; NaN cells render as "-". *)

val csv_of_series : table -> string
(** CSV with a header row; NaN cells are empty. *)

val write_file : string -> string -> unit

(** {1 Per-result reports} *)

val print_classes : Bench_core.result -> unit
(** The engine's events per acquisition by class, inlined and scheduled
    apart, then the queue tiers (nothing on a result without them). *)

val print_profile : Bench_core.result -> unit
(** The per-site coherence attribution table, if the run collected one,
    then {!print_classes}. *)

val err_pct : Bench_core.result -> float
(** Signed prediction error in percent; [nan] without a prediction. *)

val print_predictions : Bench_core.result list -> unit
(** Predicted vs measured throughput, worst |error| first. *)
