(** A spin-then-park (blocking) lock and its cohort adapters — the
    extension the paper's section 2.1 claims but never builds. Waiters
    spin briefly, then pay a kernel-trap cost to sleep and a wakeup cost
    to resume; the {!Make.Local} variant detects its cohort through a
    waiter counter maintained with fetch-and-add. See
    {!Cohort_locks.C_blk_blk}. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  val spin_before_park : int
  val park_cost : int
  val resume_cost : int

  val park : 'a M.cell -> ('a -> bool) -> 'a
  (** [park cell pred] sleeps until [pred] holds of [cell]'s value: pays
      [park_cost] (the kernel trap), waits, then pays [resume_cost]
      (wakeup + dispatch). Returns the value that satisfied [pred]. *)

  val spin_then_park : 'a M.cell -> ('a -> bool) -> 'a
  (** Spin up to [spin_before_park] ns for [pred], then {!park}. *)

  module Plain : Lock_intf.LOCK
  module Global : Lock_intf.GLOBAL
  module Local : Lock_intf.LOCAL
end
