(** Per-level interconnect contention model.

    Every cross-domain transaction occupies one of a small number of
    parallel channels for a fixed occupancy time; when all channels are
    busy the transaction queues. The machine has one channel pool per
    {!Numa_base.Topology} level, and a transaction takes a channel of the
    level of the outermost boundary it crossed — on a single-level (flat)
    topology this is exactly the historical single-pool model. Together
    with per-line serialisation in {!Coherence} this makes remote traffic
    progressively more expensive as the machine loads up (paper, section
    4.1.2: "remote L2 accesses always incur latency costs even if the
    interconnect is otherwise idle, but they can also induce interconnect
    channel contention under heavy load").

    The model keeps always-on occupancy statistics (transaction count,
    total queueing, total channel busy time, peak busy-channel depth) per
    pool; they never feed back into the returned delays, so collecting
    them is schedule-neutral. *)

type t

val create : Numa_base.Topology.t -> t
(** One pool per topology level, sized by the level's [l_channels] /
    [l_occupancy]. *)

val acquire : t -> level:int -> now:int -> int
(** [acquire t ~level ~now] reserves a channel of the given topology
    level for one transaction starting at [now] and returns the queueing
    delay (0 if a channel is free). *)

val export : t -> Numa_trace.Profile.interconnect
(** Aggregate snapshot over every level: txns/queue/busy summed, peak
    depth maxed. Identical to the single pool's stats on a flat
    machine. *)

val export_levels : t -> Numa_trace.Profile.interconnect_level list
(** Per-level snapshots, outermost level first. *)
