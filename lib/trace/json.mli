(** A minimal, dependency-free JSON tree: writer plus parser.

    The container ships no JSON library, and the CI determinism guard
    byte-compares emitted artifacts, so rendering is fully deterministic:
    object fields print in construction order, floats via [%.12g]
    (identical doubles always render identically), non-finite floats as
    [null] (and [null] reads back as [nan] through {!to_float}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] breaks objects (and lists of objects) one entry per line —
    the format of committed [BENCH_*.json] artifacts, chosen to diff
    readably. Default: compact (JSONL-safe, no newlines). *)

val of_string : string -> (t, string) result

(** Shape accessors; [None] on type mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** Also accepts [Int] (promoted) and [Null] (as [nan]). *)

val to_string_opt : t -> string option
