(** Running statistics (Welford) and small helpers used by the harness. *)

type t
(** Mutable accumulator of a sample of floats. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float
(** Population standard deviation; 0 for fewer than 2 samples. *)

val min : t -> float
val max : t -> float

val stddev_pct : t -> float
(** Standard deviation as a percentage of the mean (the paper's Figure 5
    fairness metric); 0 when the mean is 0. *)

val of_array : float array -> t

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [0,100]; sorts a copy of [a].
    @raise Invalid_argument on an empty array. *)

(** Log-bucketed histogram: O(1) add, bounded memory, ~2x relative error
    on quantiles — for recording latency distributions over millions of
    events without retaining them. *)
module Histogram : sig
  type h

  val create : unit -> h
  val add : h -> int -> unit
  (** Negative values are clamped to 0. *)

  val count : h -> int
  val total : h -> int
  val mean : h -> float

  val quantile : h -> float -> int
  (** [quantile h q] for [q] in [0,1]: an upper bound on the q-quantile
      (the top of its bucket); 0 on an empty histogram. *)

  val max_seen : h -> int
  val merge : h -> h -> h
end
