(** Deterministic pseudo-random numbers (splitmix64).

    Every experiment takes an explicit seed; the global [Random] state is
    never used, so runs are reproducible event-for-event. *)

type t

val create : int -> t
(** [create seed] makes an independent generator. *)

val copy : t -> t

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing
    [t]. Use to give each simulated thread its own stream. *)

val next_int64 : t -> int64
(** Uniform over all 64-bit values. *)

val int : t -> int -> int
(** [int t n] is uniform over [0, n).
    @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform over [0, x). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)
