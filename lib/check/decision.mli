(** Decision traces: the explorer's compact schedule encoding.

    A run of the engine under a policy makes one decision per event; the
    overwhelming majority pick candidate 0, which is exactly what the
    default (time, issue-order) schedule would run. A {e decision point}
    is a step at which at least two events were runnable; decision points
    are numbered 0, 1, 2, … within a run. A trace records only the
    {e deviations} — decision points at which an index other than 0 was
    taken — so the empty trace is the default schedule and replaying a
    trace on the same scenario reproduces the same run bit-for-bit
    (deviation [at]s index decision points, which are themselves a
    function of the prefix of decisions, so the encoding is
    self-consistent).

    String form: ["default"] (or [""]) for the empty trace, otherwise
    comma-separated ["at:pick"] pairs with strictly increasing [at] and
    [pick >= 1], e.g. ["12:1,47:2"]. *)

type deviation = { at : int;  (** decision-point index. *) pick : int }
type t = deviation list
(** Sorted by strictly increasing [at]. *)

val default : t
(** The empty trace: the engine's historical schedule. *)

val to_string : t -> string
val of_string : string -> t option
(** [None] on malformed input (bad syntax, non-increasing [at],
    [pick < 1]). *)

val pick_at : t -> int -> int
(** [pick_at t dp] is the pick recorded for decision point [dp], or 0. *)

(** One executed event of a recorded run, for counterexample printing. *)
type step = {
  s_dp : int;  (** decision-point index, [-1] when only one candidate. *)
  s_time : int;  (** simulated ns at which the event ran. *)
  s_tid : int;
  s_what : string;  (** event class + cache line, e.g. ["rmw tkt"]. *)
  s_pick : int;  (** candidate index actually run. *)
  s_n : int;  (** number of runnable candidates. *)
}

val pp_interleaving : Format.formatter -> step list -> unit
