(** Plain-text table/series rendering and CSV export for the experiment
    harness. Output mirrors the paper's figures (series over thread
    counts, one column per lock) and tables (rows per thread count). *)

val fmt_si : float -> string
(** Human units: 6400000. -> "6.40M", 497000. -> "497.0k". *)

val fmt_fixed2 : float -> string
val fmt_fixed1 : float -> string

val print_series :
  title:string ->
  x_label:string ->
  columns:string list ->
  rows:(int * float array) list ->
  fmt:(float -> string) ->
  unit ->
  unit
(** Aligned text table; NaN cells render as "-". *)

val csv_of_series :
  x_label:string -> columns:string list -> rows:(int * float array) list ->
  string
(** CSV with a header row; NaN cells are empty. *)

val write_file : string -> string -> unit
