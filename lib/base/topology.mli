(** NUMA machine topology: an N-level cache/interconnect hierarchy.

    A machine is a tree of [levels] (outermost first — e.g. rack →
    socket); the leaves are the {e clusters} that lock cohorting
    operates on (the paper's T5440 sockets), each with a cluster-shared
    cache and [threads_per_cluster] hardware thread contexts. Every
    level carries its own transfer cost and interconnect channel pool:
    the cost of a cross-cluster transaction is that of the outermost
    level boundary it crosses (the lowest common ancestor of the two
    clusters). A single-level topology is exactly the historical flat
    {clusters x threads_per_cluster} machine, with the level's transfer
    cost equal to [Latency.remote_transfer].

    Logical threads are identified by a dense integer id and are
    decoupled from hardware contexts by one rule: thread [tid] occupies
    context [ctx = tid mod total_threads] (oversubscription wraps), and
    context [ctx] lives on cluster [ctx mod clusters] (round-robin, so
    thread counts are balanced across clusters at every concurrency
    level, as the OS spreads unbound threads). *)

type level = private {
  l_name : string;
  l_arity : int;  (** children per node at this level. *)
  l_transfer : int;
      (** ns cost of a transfer whose outermost crossed boundary is this
          level. *)
  l_channels : int;  (** parallel interconnect channels at this level. *)
  l_occupancy : int;
      (** ns a transaction occupies a channel; 0 disables queueing. *)
}

val level :
  ?channels:int ->
  ?occupancy:int ->
  name:string ->
  arity:int ->
  transfer:int ->
  unit ->
  level
(** Level constructor; [channels] defaults to 1, [occupancy] to 0.
    @raise Invalid_argument if [arity] or [channels] < 1, or [transfer]
      or [occupancy] < 0. *)

type t = private {
  name : string;
  levels : level array;  (** outermost first; never empty. *)
  clusters : int;
      (** leaf domains = cohort clusters: the product of the level
          arities, <= 62; what [Lock_intf.config.clusters] and every
          lock sees. *)
  threads_per_cluster : int;  (** hardware contexts per cluster. *)
  latency : Latency.t;
  xfer : int array;
      (** flattened [clusters x clusters] transfer-cost matrix; diagonal
          0. Prefer {!xfer_cost}. *)
  xlevel : int array;
      (** flattened crossing-level matrix; diagonal unused. Prefer
          {!cross_level}. *)
}

val make :
  ?name:string -> clusters:int -> threads_per_cluster:int -> Latency.t -> t
(** The flat two-tier machine: one level of [clusters] whose transfer
    cost, channel count and occupancy come from the latency preset
    ([remote_transfer] / [interconnect_*]) — bit-identical to the
    historical model.
    @raise Invalid_argument if [clusters] or [threads_per_cluster] < 1. *)

val make_hier :
  ?name:string ->
  levels:level list ->
  threads_per_cluster:int ->
  Latency.t ->
  t
(** General constructor; [levels] is outermost first and its innermost
    level's nodes are the clusters. The latency preset still provides
    the within-cluster costs (l1/local/memory/upgrade/atomic); its
    [remote_transfer] and [interconnect_*] fields are superseded by the
    per-level values.
    @raise Invalid_argument on an empty level list, a
      [threads_per_cluster] < 1 or more than 62 clusters. *)

val t5440 : t
(** The paper's machine: 4 clusters x 64 hardware threads, T5440
    latencies. *)

val small : t
(** 2 clusters x 4 threads; convenient in unit tests. *)

val rack : t
(** 2 racks x 2 sockets x 64 threads: three latency tiers (local 20 ns,
    socket 125 ns, rack 300 ns); each socket is a cluster, so locks see
    the same 4x64 shape as {!t5440} over a deeper interconnect. *)

val of_spec : string -> (t, string) result
(** Parse a topology selector: a preset name ([t5440]|[small]|[rack]),
    a flat [CxT] spec (e.g. [4x64]), or a rack-style [RxSxT] spec
    (e.g. [2x2x32]). *)

val total_threads : t -> int
(** Hardware contexts in the machine ([clusters * threads_per_cluster]).
    Logical thread counts may exceed this: thread ids wrap. *)

val cluster_of_thread : t -> int -> int
(** [cluster_of_thread t tid] is the cluster thread [tid] runs on:
    [tid mod total_threads t mod clusters]. Logical thread [tid] runs on
    hardware context [tid mod total_threads t], so oversubscribed
    threads share contexts round-robin.
    @raise Invalid_argument if [tid < 0]. *)

val xfer_cost : t -> int -> int -> int
(** [xfer_cost t a b] is the ns cost of moving a line between clusters
    [a] and [b]: the transfer cost of their crossing level, or 0
    when [a = b]. *)

val cross_level : t -> int -> int -> int
(** The index into [levels] of the outermost boundary separating two
    distinct clusters. *)

val predict_calib : t -> Numa_trace.Predict.calib
(** Calibration constants for {!Numa_trace.Predict.predict}: context
    count, [local_hit], [atomic_extra] and, as [remote_ns], the mean of
    {!xfer_cost} over the distinct cluster pairs — the expected cost of
    a cross-cluster line transfer under uniformly mixed traffic. That
    mean equals [remote_transfer] on a flat machine; a degenerate
    single-cluster machine reports its level's transfer cost (see
    doc/SIMULATOR.md "Model validation"). *)
