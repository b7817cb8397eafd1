(** Small statistics helpers used by the harness. *)

val stddev_pct : float array -> float
(** Population standard deviation of a sample as a percentage of its
    mean (the paper's Figure 5 fairness metric), in one pass (Welford);
    0 when the mean is 0. *)

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

  val quantile : h -> float -> int
  (** [quantile h q] for [q] in [0,1]: an upper bound on the q-quantile
      (the top of its bucket); 0 on an empty histogram. *)

  val max_seen : h -> int
  val merge : h -> h -> h
end
