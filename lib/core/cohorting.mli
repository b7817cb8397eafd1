(** The lock cohorting transformation — the paper's central contribution
    (section 2.1).

    [Make (Name) (M) (G) (L)] composes a thread-oblivious global lock [G]
    with cohort-detecting per-cluster local locks [L] into a NUMA-aware
    lock over the memory substrate [M]:

    - {b acquire}: take the local lock of the caller's cluster; if it
      arrived in {!Lock_intf.Local_release} state the global lock is
      already owned on behalf of this cluster, otherwise acquire [G].
    - {b release}: if a cohort peer is waiting ([not (alone ())]) and the
      may-pass-local predicate ({!Lock_intf.handoff_policy}) allows,
      release only the local lock in [Local_release] state — passing
      implicit ownership of [G] at local-lock cost. Otherwise release [G]
      and then the local lock in [Global_release] state.

    The result is deadlock-free given deadlock-free components and the
    {!Lock_intf.LOCAL} contract that [alone?] has no dangerous false
    negatives. Fairness is governed entirely by the global lock's own
    fairness plus the handoff policy (Figure 5: a cohort lock over an
    unfair global BO lock is deeply unfair even with a tight handoff
    bound). *)

module Make (_ : sig
  val name : string
end)
(M : Numa_base.Memory_intf.MEMORY)
(_ : Lock_intf.GLOBAL)
(_ : Lock_intf.LOCAL) : Lock_intf.LOCK

(** [Abortable (Name) (M) (L)] is the transformation with timeouts
    (section 3.6) over a global BO lock, acquired by the attempt's
    deadline, and abortable local locks [L]. A [Global_release] grant
    whose global acquire times out releases the local lock again and
    aborts; a rescued abort releases globally first. On release [L]
    tries to pass within the cohort, asking the same may-pass-local
    predicate as {!Make}; if it declines, release the global lock, then
    the local lock. *)
module Abortable (_ : sig
  val name : string
end)
(M : Numa_base.Memory_intf.MEMORY)
(_ : Lock_intf.ABORTABLE_LOCAL) : Lock_intf.ABORTABLE_LOCK
