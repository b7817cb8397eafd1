(** A spin-then-park (blocking) lock and its cohort adapters — the
    extension the paper's section 2.1 claims but never builds. Waiters
    spin briefly, then pay a kernel-trap cost to sleep and a wakeup cost
    to resume; the {!Make.Local} variant detects its cohort through a
    waiter counter maintained with fetch-and-add. See
    {!Cohort_locks.Make.c_blk_blk}. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  val park : 'a M.cell -> ('a -> bool) -> 'a
  (** [park cell pred] sleeps until [pred] holds of [cell]'s value: pays
      800 ns (the kernel trap), waits, then pays 2,500 ns (wakeup +
      dispatch). Returns the value that satisfied [pred]. *)

  val spin_then_park : 'a M.cell -> ('a -> bool) -> 'a
  (** Spin up to 3,000 ns for [pred], then {!park}. *)

  module Plain : Lock_intf.LOCK
  module Global : Lock_intf.GLOBAL
  module Local : Lock_intf.LOCAL
end
