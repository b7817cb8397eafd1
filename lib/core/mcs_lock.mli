(** MCS queue lock (Mellor-Crummey & Scott) and its cohort adapters
    (paper sections 3.3-3.4): local spinning on a per-thread queue node,
    FIFO handoff through the node's state word.

    The node type and queue helpers are exposed because {!Baselines.Fc_mcs}
    splices chains of these nodes into its global queue. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  val nbusy : int
  val ngranted_local : int
  (** Granted (plain lock), or granted-with-implicit-global-ownership
      (cohort local lock). *)

  type node = {
    next : node option M.cell;
    nstate : int M.cell;
    nfree : bool M.cell;  (** pool-membership flag used by {!Global}. *)
    mutable some_self : node option;
        (** the node's unique [Some] box: tail CASes compare physically,
            so the value swapped in and the value expected by the
            releasing CAS must be the same allocation. *)
  }

  val make_node : unit -> node
  val some : node -> node option

  val enqueue : node option M.cell -> node -> node option
  (** Swap the node onto the tail; returns the predecessor, if any. *)

  val pass_or_close :
    node option M.cell -> node -> code:int -> may_close:bool -> unit
  (** Hand the lock to the node's successor with state [code]; with no
      successor, close the queue if [may_close] (waiting out half-done
      enqueues). *)

  (** The classic lock; one reusable node per registered thread. *)
  module Plain : Lock_intf.LOCK

  (** Cohort-local MCS: [alone?] is a non-null successor check and the
      state word carries the release kind (section 3.3). *)
  module Local : Lock_intf.LOCAL

  (** Thread-oblivious global MCS: queue nodes circulate through
      per-thread pools so a different thread can release (section 3.4). *)
  module Global : Lock_intf.GLOBAL
end
