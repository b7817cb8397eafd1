(** CLH queue lock (Craig; Landin & Hagersten): threads spin on their
    predecessor's node and recycle it on release. A baseline component
    and the conceptual substrate of HCLH and A-CLH. *)

module Make (_ : Numa_base.Memory_intf.MEMORY) : sig
  module Plain : Lock_intf.LOCK

  (** Cohort-detecting local CLH: [alone?] checks whether the tail moved
      past the holder's node; the node word carries the release kind.
      (The paper only builds the abortable CLH local lock; this completes
      the non-abortable composition matrix.) *)
  module Local : Lock_intf.LOCAL

  (** Thread-oblivious CLH: per-acquisition nodes with the holder's node
      published under the lock, so any thread can release. *)
  module Global : Lock_intf.GLOBAL

  (** The abortable local CLH lock of A-C-BO-CLH (section 3.6.2). *)
  module Abortable_local : Lock_intf.ABORTABLE_LOCAL
end
