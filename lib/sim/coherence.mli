(** MESI-style cache-line coherence model.

    Each line is either Modified in exactly one cluster's cache, Shared by
    a set of clusters, or Invalid everywhere. An access returns the
    latency it costs and updates the line state; cross-cluster transfers
    additionally serialise on the line itself ([busy_until]), which models
    coherence arbitration: when a writer invalidates N spinning sharers,
    their re-fetches queue behind one another, exactly the invalidation
    storms that make NUMA-oblivious TATAS locks collapse.

    The model also tracks the last accessing thread per line so that
    repeated accesses by the same thread cost an L1 hit, making a
    critical section that increments a counter several times cost one
    transfer plus cheap L1 traffic (as on real hardware).

    An access is decided once and applied once: {!classify} names the
    {!transition} from the line state alone, and {!charge} applies it.
    Each transition's conditions live only in [classify] (the L1 hit's in
    {!is_l1_hit}, which [classify] tests first) and its effects only in
    [charge] or code it shares with the engine fast path, {!try_hit}; so
    the two paths cannot drift apart (doc/SIMULATOR.md "Engine fast
    path", step 1).

    Optionally, a {!profiler} attributes every access to the line's
    allocation-site label ([?name] of {!make_line}): per-site hit/miss
    counts, invalidations sent and received, and stall nanoseconds by
    cause. Attribution mutates statistics only — never line state or
    latencies — so a profiled run is schedule-identical to an unprofiled
    one (pinned by test_profile). *)

type kind = Read | Write | Rmw

(** Which MESI transition an access takes, as decided by {!classify}. The
    first three stay inside the accessing domain; the others cross it. *)
type transition =
  | L1_hit
      (** the last accessor again, on a line its domain caches
          (Modified, for writes). *)
  | Local_hit  (** another thread of the domain that caches the line. *)
  | Upgrade  (** write to a line Shared by the writer's domain alone. *)
  | Fetch_modified
      (** read of a line Modified in a remote domain: cache-to-cache
          transfer, the owner demoted to Shared. *)
  | Fetch_shared
      (** read of a line Shared remotely only: from the nearest sharer. *)
  | Invalidate
      (** write to a line Shared by the writer's domain and remote ones:
          invalidate them, bounded by the furthest victim. *)
  | Steal  (** write to a line Modified in a remote domain. *)
  | Miss_invalidate
      (** write to a line Shared remotely only: fetch and invalidate
          every sharer. *)
  | Memory  (** no cache holds the line. *)

type line = private {
  name : string;  (** allocation-site label; [""] if unlabelled. *)
  mutable owner : int;  (** cluster holding the line Modified; -1 if none *)
  mutable sharers : int;  (** bitmask of clusters holding it Shared *)
  mutable last_thread : int;  (** last accessing thread, for L1 modelling *)
  mutable busy_until : int;  (** line occupied by a transfer until then *)
  mutable epoch : int;  (** run id; state auto-resets across runs *)
  mutable prow : Numa_trace.Profile.site option;
      (** cached profiler row for [name]; reset with the epoch so stale
          rows never leak across runs. Filled by {!charge} when a
          profiler is passed; the engine charges interconnect queueing
          to its [s_stall_interconnect_ns] at its own call site. *)
  mutable wq : Waitq.t;
      (** threads parked on this line ([Engine]'s wait queue; stored
          here so a write reaches its waiters with one field load and a
          waiterless write costs nothing — see waitq.ml). {!Waitq.none}
          until a fiber first parks on the line, when {!own_waitq} gives
          the line a queue of its own, kept for the line's lifetime. *)
}

type stats = {
  mutable accesses : int;
  mutable l1_hits : int;
  mutable local_hits : int;
  mutable coherence_misses : int;
      (** local miss serviced by a remote cluster's cache: the paper's
          Figure 3 metric. *)
  mutable memory_misses : int;  (** no cache had the line. *)
  mutable invalidations : int;
      (** writes that had to invalidate remote sharers. *)
  mutable remote_txns : int;  (** transactions that crossed the interconnect *)
  mutable waiter_scans : int;
      (** value-changing writes and RMWs that found parked waiters and
          walked the line's wait queue. Writes to waiterless lines,
          failed CASes and stores of the value already in the cell do
          not count — and walk nothing (pinned by test_sim). *)
  mutable last_xlevel : int;
      (** crossing level of the most recent remote transaction —
          engine-internal plumbing so the interconnect can charge the
          right level's channel pool. Always [0] on a single-level
          machine. Not part of the exported snapshot. *)
}

type profiler
(** Per-site attribution table, keyed by line label. One per run. *)

val make_line : ?name:string -> unit -> line
(** A fresh line: Invalid everywhere, sharing {!Waitq.none}. *)

val own_waitq : line -> Waitq.t
(** The line's own waiter queue, made (empty, owned by no run) and kept
    on the line the first time it is asked for. [Engine.add_waiter] is
    the one caller: only a park needs a queue. *)

val fresh_stats : unit -> stats
val make_profiler : unit -> profiler

val sites : profiler -> Numa_trace.Profile.site list
(** The attribution table's rows, sorted by site label. The rows are the
    profiler's own: read them once the run has ended. *)

val export : stats -> Numa_trace.Profile.coherence
(** Immutable snapshot of the engine-global counters. *)

val is_l1_hit :
  line -> epoch:int -> domain:int -> thread:int -> kind -> bool
(** The L1 hit condition: [classify] answers [L1_hit] exactly when it
    holds. *)

val classify :
  line -> epoch:int -> domain:int -> thread:int -> kind -> transition
(** The transition an access by [thread] on leaf domain [domain] would
    take now. Pure: no state, no counter. A line not yet touched in
    [epoch] is Invalid everywhere, so it classifies as [Memory]. The L1
    test comes first (doc/SIMULATOR.md "Engine fast path", step 1). *)

val hit_ns : Numa_base.Topology.t -> transition -> int
(** The stall of a same-domain hit ([L1_hit], [Local_hit], [Upgrade]),
    or [-1] for every other class. Excludes the Rmw [atomic_extra]. *)

val try_hit :
  stats ->
  Numa_base.Topology.t ->
  line ->
  epoch:int ->
  domain:int ->
  thread:int ->
  kind ->
  within:int ->
  int
(** The engine fast path: if the access is a same-domain hit whose
    latency (Rmw [atomic_extra] included) is at most [within], apply it
    with {!charge}'s own code — attributed to [line.prow] — and return
    that latency; otherwise return [-1] having touched nothing. An L1 hit
    is retired by counters alone (doc/SIMULATOR.md "Engine fast path",
    step 1). *)

val charge :
  ?prof:profiler ->
  stats ->
  Numa_base.Topology.t ->
  line ->
  now:int ->
  epoch:int ->
  domain:int ->
  thread:int ->
  kind ->
  transition ->
  int
(** Apply the transition {!classify} returned for the same arguments:
    counters, attribution and state. Returns the total latency of
    [kind] by [thread] on leaf domain [domain] at time [now], including
    any queueing on a busy line. Cross-domain costs come from [topo]'s
    distance matrix: a read fetches from the nearest sharer, an
    invalidating write pays the round trip to the furthest victim, and
    [stats.last_xlevel] records the crossing level so the engine can
    charge the matching interconnect pool. On a single-level machine
    every pair costs the flat [remote_transfer]. [epoch] identifies the
    simulation run; a line first touched in a new epoch starts Invalid.
    With [?prof] the access is additionally attributed to the line's
    site row (found once per line per epoch, then cached on
    [line.prow]); latencies and state transitions are byte-identical
    with and without it. An [L1_hit] goes through the code {!try_hit}
    retires one with. *)
