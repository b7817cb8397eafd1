(** Coherence attribution rollup — the profiler's answer to "why is this
    lock slow", sitting beside {!Metrics} (which answers "how did the
    cohort protocol behave").

    A profile is produced by the simulation substrate: engine-global
    coherence counters, interconnect occupancy/queueing statistics, and —
    when per-site profiling was enabled for the run — a table of per-site
    rows attributing traffic and stall time to the allocation site (the
    [?name] label) of each cache line. A {!site} row is the
    profiler's own counter record, which the engine bumps in place during
    the run; once the run has returned nothing mutates it. Collecting a
    profile mutates statistics only, never simulated latencies, so
    profiles are schedule-neutral by construction (see doc/SIMULATOR.md,
    "Profiling and attribution"). *)

type coherence = {
  accesses : int;
  l1_hits : int;
  local_hits : int;
  coherence_misses : int;
      (** local miss serviced by a remote cluster's cache — a
          cache-to-cache transfer; the paper's Figure 3 metric. *)
  memory_misses : int;
  invalidations : int;  (** writes that invalidated remote sharers. *)
  remote_txns : int;  (** transactions that crossed the interconnect. *)
  waiter_scans : int;
}
(** Immutable snapshot of the engine-global [Coherence.stats]. *)

type interconnect = {
  txns : int;  (** cross-cluster transactions that took a channel. *)
  queue_ns : int;  (** total ns transactions waited for a free channel. *)
  busy_ns : int;  (** total channel-occupancy ns consumed. *)
  peak_queue : int;
      (** max number of already-busy channels observed at any
          acquisition — the high-water mark of channel contention. *)
}
(** Aggregate over every level of the machine; on a single-level
    (flat) topology this is the whole story. *)

type interconnect_level = {
  lvl_name : string;  (** the topology level's name (e.g. ["socket"]). *)
  lvl_txns : int;
  lvl_queue_ns : int;
  lvl_busy_ns : int;
  lvl_peak_queue : int;
}
(** Per-level slice of the aggregate {!interconnect} stats: one row per
    topology level, outermost first. *)

type site = {
  site : string;  (** the line's [?name] label; [""] if unlabelled. *)
  mutable s_lines : int;
      (** distinct cache lines of this site touched during the run —
          the site's memory footprint in lines (e.g. one per queue node
          for ["mcs.node"], one per partition for ["ptl.slot"]). *)
  mutable s_accesses : int;
  mutable s_l1_hits : int;
  mutable s_local_hits : int;  (** cluster-local hits and silent upgrades. *)
  mutable s_remote_transfers : int;  (** cache-to-cache transfers of this line. *)
  mutable s_memory_misses : int;
  mutable s_inval_sent : int;  (** writes here that invalidated remote copies. *)
  mutable s_inval_received : int;  (** remote copies of this line invalidated. *)
  mutable s_remote_txns : int;
  mutable s_stall_local_ns : int;  (** latency paid on local hits/upgrades. *)
  mutable s_stall_remote_ns : int;
      (** latency paid on cross-cluster transfers, incl. per-line
          queueing. *)
  mutable s_stall_memory_ns : int;
  mutable s_stall_interconnect_ns : int;
      (** additional queueing for an interconnect channel. *)
}
(** One site's row. The counters are mutable because the row is the
    profiler's own: the simulation engine bumps them in place during
    the run, so the run's profile hands the rows over without a copy. *)

type t = {
  sites : site list;
      (** one row per distinct site label, sorted by label; empty when
          the run was not profiled per-site. *)
  totals : coherence;
  icx : interconnect;
  icx_levels : interconnect_level list;
      (** per-level interconnect rollups, outermost level first; empty
          when the substrate cannot attribute (native runs). *)
}

val stall_split : t -> int * int * int * int
(** [(local, remote, memory, interconnect)] stall ns summed over sites.
    Kept for ROADMAP item 8, which splits simulated ns per acquisition
    by cause; today only {!pp} reads it. *)

val remote_transfers_per_acquire : t -> acquires:int -> float
(** Engine-total coherence misses per lock acquisition — the paper's
    central "lock migration" cost; [nan] if [acquires <= 0]. *)

val invalidations_per_release : t -> releases:int -> float

val lock_lines : ?exclude:string list -> t -> int
(** Sum of [s_lines] over sites whose label does not start with any of
    the [exclude] prefixes (default [["lbench."; "cs."]], the harness
    workload sites): the lock's own metadata footprint in distinct
    cache lines. The successor paper-claim gate compares CNA against
    C-BO-MCS on this. 0 when the run was not profiled per-site. *)

val to_fields : acquires:int -> releases:int -> t -> (string * float) list
(** Flat [coh_*] / [icx_*] metrics for the benchmark artifact, the
    ratio fields per [acquires] and [releases].
    Multi-level profiles additionally emit [icx_<level>_*] fields;
    single-level ones do not, keeping flat-machine artifacts
    byte-identical to the historical schema. *)

val pp : Format.formatter -> t -> unit
(** Two summary lines plus the per-site table, ranked by remote traffic
    (transfers + invalidations sent), then total stall, then name;
    multi-level profiles insert a per-level interconnect rollup line
    between. *)
