(** A structured property-violation report: which invariant broke, on
    which lock, who was involved and when (substrate clock).

    Raised (as {!Violation}) by the {!Oracle} wrappers from inside a
    thread body, so inside a run it surfaces wrapped in
    [Runtime_intf.Thread_failure] (which [Engine.Thread_failure] is);
    the explorer ({!Explore}) unwraps it and also synthesises violations
    for deadlock and no-progress outcomes. *)

type t = {
  lock : string;  (** lock (or scenario) name. *)
  invariant : string;
      (** which property: ["mutual-exclusion"], ["reentrant-acquire"],
          ["release-without-hold"], ["fifo"], ["cohort-handoff-empty"],
          ["cohort-handoff-limit"], ["lost-update"], ["deadlock"],
          ["no-progress"], ["thread-exception"]. *)
  tid : int;  (** offending thread, [-1] if not attributable. *)
  other : int;  (** second involved thread, [-1] if none. *)
  at : int;  (** substrate timestamp, ns. *)
  detail : string;
}

exception Violation of t

val make :
  ?other:int -> lock:string -> invariant:string -> tid:int -> at:int ->
  string -> t

val fail :
  ?other:int -> lock:string -> invariant:string -> tid:int -> at:int ->
  string -> 'a
(** [fail ... detail] raises {!Violation}. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
