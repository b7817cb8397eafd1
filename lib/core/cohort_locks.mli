(** The composition table: the paper's generality claim (sections 2.1
    and 3) as one functor over the memory substrate. Any thread-oblivious
    global lock composes with any cohort-detecting local lock through
    {!Cohorting.Make}; [compose] is the only place that applies it.

    The paper names five of the 16 compositions of its four components:
    C-BO-BO (section 3.1), C-TKT-TKT (3.2), C-BO-MCS (3.3, Figure 1: the
    best-scaling lock, and deeply unfair, Figure 5), C-MCS-MCS (3.4: the
    global MCS circulates queue nodes through per-thread pools to be
    thread-oblivious) and C-TKT-MCS (3.5: fair global, local spinning).
    Look them up with {!Make.get}. Apply the functor to
    {!Numasim.Sim_mem} for simulated experiments or
    {!Numa_native.Nat_mem} for real domains.

    The abortable cohort locks A-C-BO-BO and A-C-BO-CLH (section 3.6)
    are the same transformation in its abortable form,
    {!Cohorting.Abortable}, over abortable BO and CLH local locks. *)

module Make (_ : Numa_base.Memory_intf.MEMORY) : sig
  val globals : (string * (module Lock_intf.GLOBAL)) list
  (** The thread-oblivious global components by name: BO, TKT, MCS,
      CLH. *)

  val locals : (string * (module Lock_intf.LOCAL)) list
  (** The cohort-detecting local components by name: BO, TKT, MCS,
      CLH. *)

  val compose :
    global:string * (module Lock_intf.GLOBAL) ->
    local:string * (module Lock_intf.LOCAL) ->
    (module Lock_intf.LOCK)
  (** [compose ~global:(g, G) ~local:(l, L)] is the cohort lock
      [C-g-l] over [G] and [L]. Each call applies {!Cohorting.Make}
      afresh; use {!all} or {!get} for the table's own instances. *)

  val all : (string * (module Lock_intf.LOCK)) list
  (** All 16 compositions of {!globals} with {!locals}, row-major
      (C-BO-BO, C-BO-TKT, ..., C-CLH-CLH), with their names. *)

  val get : global:string -> local:string -> (module Lock_intf.LOCK)
  (** The composition of {!all} with these axis names.
      @raise Invalid_argument naming an unknown axis name. *)

  val a_c_bo_bo : (module Lock_intf.ABORTABLE_LOCK)
  (** A-C-BO-BO (section 3.6.1). *)

  val a_c_bo_clh : (module Lock_intf.ABORTABLE_LOCK)
  (** A-C-BO-CLH (section 3.6.2), the best abortable lock of Figure 6. *)

  val c_blk_blk : (module Lock_intf.LOCK)
  (** C-BLK-BLK (extension): spin-then-park blocking locks at both
      levels, the composition section 2.1 claims but never builds; see
      {!Park_lock}. *)

  val c_rw_wp : (module Lock_intf.RW_LOCK)
  (** C-RW-WP<BO-MCS> (extension): a NUMA-aware writer-preference
      reader-writer lock whose writers serialise through the table's
      C-BO-MCS; see {!Rw_cohort}. *)
end
