(** Latency parameters of the simulated CC-NUMA machine.

    All values are in nanoseconds of simulated time. The defaults are
    calibrated to the Oracle T5440 used in the paper: a remote L2
    cache-to-cache transfer costs roughly four times a local L2 hit
    (paper, section 4.1.2), and remote transactions additionally occupy an
    interconnect channel, so that heavy cross-socket traffic queues. *)

type t = {
  l1_hit : int;  (** load/store that hits the core-local cache. *)
  local_hit : int;  (** access serviced by the cluster-shared L2. *)
  remote_transfer : int;
      (** cache-to-cache transfer from a remote cluster's L2. *)
  mem_access : int;  (** access serviced by DRAM (no cache has the line). *)
  upgrade_local : int;
      (** store upgrading a locally-shared line with no remote sharers. *)
  atomic_extra : int;  (** additional cost of a CAS/SWAP/FAA over a store. *)
  interconnect_occupancy : int;
      (** channel hold time charged per cross-cluster transaction. *)
  interconnect_channels : int;
      (** number of parallel interconnect channels (per direction). *)
}

val t5440 : t
(** Calibrated to the paper's 4-socket Niagara T2+ machine. *)

val two_socket_x86 : t
(** A contemporary 2-socket x86 profile (faster caches, fewer channels);
    used in tests to check that results are not an artefact of one
    parameter set. *)

val uniform : t
(** Degenerate profile where remote == local: a UMA machine. With this
    profile NUMA-aware locks should show no advantage; used as a negative
    control in tests. *)
