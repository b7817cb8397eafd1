(** Deterministic pseudo-random numbers (splitmix64).

    Every experiment takes an explicit seed; the global [Random] state is
    never used, so runs are reproducible event-for-event. *)

type t

val create : int -> t
(** [create seed] makes an independent generator. *)

val next_int64 : t -> int64
(** Uniform over all 64-bit values. *)

val int : t -> int -> int
(** [int t n] is uniform over [0, n).
    @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform over [0, x). *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)
