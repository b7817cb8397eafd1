(** Test-and-test-and-set lock with exponential backoff (the paper's
    "BO" lock) and its cohort adapters. See the implementation header for
    the protocol details of each variant. *)

module Make (_ : Numa_base.Memory_intf.MEMORY) : sig
  (** The TATAS loop with per-thread backoff under [policy]; its lock
      word is one cell labelled [site]. *)
  module Tatas (_ : sig
    val name : string
    val site : string
    val policy : Backoff.policy
  end) : Lock_intf.LOCK

  (** The classic TATAS-BO lock: [Tatas] named ["BO"], site
      ["bo.state"], exponential backoff. *)
  module Plain : Lock_intf.LOCK

  (** Thread-oblivious; spins without backoff, per the paper's
      observation that a cohort lock's global BO lock is lightly
      contended (section 4.1). *)
  module Global : Lock_intf.GLOBAL

  (** The 3-state local BO lock of C-BO-BO with the successor-exists
      cohort-detection flag (section 3.1). *)
  module Local : Lock_intf.LOCAL

  (** The abortable local BO lock of A-C-BO-BO (section 3.6.1). *)
  module Abortable_local : Lock_intf.ABORTABLE_LOCAL
end
