(** The named cohort locks: the paper's five non-abortable compositions
    (section 3) plus the two extension locks this repository adds. Each is
    a one-line instantiation of {!Cohorting.Make}; apply to
    {!Numasim.Sim_mem} for simulated experiments or
    {!Numa_native.Nat_mem} for real domains.

    The abortable cohort locks A-C-BO-BO and A-C-BO-CLH live in
    {!A_c_bo_bo} and {!A_c_bo_clh} (their release protocols do not fit
    the plain transformation). *)

(** C-BO-BO (section 3.1): global BO lock, local 3-state BO locks with a
    successor-exists flag. *)
module C_bo_bo (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.LOCK

(** C-TKT-TKT (section 3.2): ticket locks at both levels. *)
module C_tkt_tkt (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.LOCK

(** C-BO-MCS (section 3.3, Figure 1): global BO lock, local MCS queues —
    the best-scaling lock in the paper's evaluation (and deeply unfair,
    Figure 5: the releasing cluster re-wins the global BO race through
    cache residency). *)
module C_bo_mcs (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.LOCK

(** C-TKT-MCS (section 3.5): fair global ticket lock, local-spinning MCS
    local locks — the paper's "best of both". *)
module C_tkt_mcs (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.LOCK

(** C-MCS-MCS (section 3.4): MCS at both levels, with queue nodes
    circulating through per-thread pools to make the global MCS lock
    thread-oblivious. *)
module C_mcs_mcs (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.LOCK

(** C-BLK-BLK (extension): spin-then-park blocking locks at both levels;
    see {!Park_lock}. *)
module C_blk_blk (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.LOCK

(** C-RW-WP (extension): NUMA-aware writer-preference reader-writer lock
    whose writers serialise through C-BO-MCS; see {!Rw_cohort}. *)
module C_rw_bo_mcs (_ : Numa_base.Memory_intf.MEMORY) : Lock_intf.RW_LOCK
