(** The substrate-generic randomized stress campaign behind
    [bin/torture.exe]: throws random configurations (lock, topology,
    thread count, critical/non-critical section lengths, handoff policy,
    patience) at every lock in the registry and verifies mutual
    exclusion (via {!Numa_check.Oracle} and an independent in-CS counter), full
    progress, and post-abort lock health.

    Under the simulated runtime every case is deterministic given its
    parameters; under the native runtime the same campaign drives real
    domains, where a failure prints a configuration that is a starting
    point rather than an exact replay. *)

type tcase = {
  c_lock : string;
  c_threads : int;
  c_cs : int;
  c_ncs : int;
  c_policy : Cohort.Lock_intf.handoff_policy;
  c_seed : int;
  c_clusters : int;
}

val gen_case : Numa_base.Prng.t -> Lock_registry.entry list -> tcase
val pp_case : tcase -> string

module Make (M : Numa_base.Memory_intf.MEMORY) (RT : Numa_base.Runtime_intf.RUNTIME) : sig
  module R : Lock_registry.S
  (** The registry instance the campaign draws cases from. *)

  val run_case :
    ?oracles:bool -> ?topology:Numa_base.Topology.t -> tcase ->
    (unit, string) result
  (** Run one plain-lock case (20 acquisitions per thread, checker
      wrapped): [Error] carries the violation. [oracles] additionally
      enables the {!Numa_check.Oracle} cohort-handoff-legality and FIFO
      checks appropriate to the case's lock; they consume the trace
      stream, so they engage only when [RT.deterministic] (no-op on the
      native runtime). Default [false]. [topology] overrides the
      generated flat machine (the [--topology] CLI flag); cases with more
      threads than it has contexts run oversubscribed. *)

  val run_abortable_case :
    ?topology:Numa_base.Topology.t -> tcase -> (unit, string) result
  (** Run one abortable case (the lock is picked from the abortable
      line-up by the case seed), including a post-abort-storm health
      check. *)

  val campaign :
    ?oracles:bool -> ?topology:Numa_base.Topology.t ->
    log:(string -> unit) -> rounds:int -> seed:int ->
    unit -> int
  (** [campaign ~log ~rounds ~seed ()] runs [rounds] x (one random plain
      case + one random abortable case) and returns the number of
      failures, reporting each through [log]. [oracles] and [topology]
      as in {!run_case}. *)
end
