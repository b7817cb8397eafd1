(** Plain-text table/series rendering and CSV export for the experiment
    harness. Output mirrors the paper's figures (series over thread
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
