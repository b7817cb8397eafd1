(** Deliberately broken lock variants for oracle mutation testing.

    Each mutant mirrors a genuine lock with one seeded bug; exhaustive
    exploration ({!Explore.exhaustive}) must catch all four, which
    demonstrates the oracles are sensitive to exactly the failure class
    they claim to check:

    - ["C-BO-MCS!skip-limit"] — the cohort release path ignores
      may-pass-local, so batches are unbounded (caught by the
      cohort-handoff-limit oracle, on the default schedule already);
    - ["TKT!lost-ticket"] — the ticket grab is a non-atomic
      read-then-write, a lost-update race (caught by the
      mutual-exclusion oracle under an interleaving of the two halves);
    - ["MCS!late-reset"] — the node's busy reset is ordered after the
      successor-pointer publish, so a grant landing in the window is
      wiped (caught as a deadlock, needs a schedule that delays one
      write past two of another thread's);
    - ["GCR-MCS!dropped-unpark"] — the GCR wrapper's releaser-side
      drain rescue is dropped, so a thread that parked while the last
      active still held a slot (its own parker-side rescue finds the
      gate occupied and stands down) is never promoted once that
      active retires — a lost wakeup, caught as a deadlock on the
      default schedule already. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  val skip_limit : (module Cohort.Lock_intf.LOCK)

  val all : (module Cohort.Lock_intf.LOCK) list
  (** The four mutants, in the order listed above. *)

  val find : string -> (module Cohort.Lock_intf.LOCK) option
  (** The mutant of [all] with that name (["TKT!lost-ticket"], ...). *)
end
