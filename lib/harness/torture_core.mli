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

module Make (M : Numa_base.Memory_intf.MEMORY) (RT : Numa_base.Runtime_intf.RUNTIME) : sig
  module R : Lock_registry.S
  (** The registry instance the campaign draws cases from. *)

  val campaign :
    ?oracles:bool -> ?topology:Numa_base.Topology.t ->
    log:(string -> unit) -> rounds:int -> seed:int ->
    unit -> int
  (** [campaign ~log ~rounds ~seed ()] runs [rounds] x (one random plain
      case + one random abortable case) and returns the number of
      failures, reporting each through [log]. A plain case makes 20
      acquisitions per thread, checker wrapped; an abortable one (its
      lock picked from the abortable line-up by the case seed) ends with
      a post-abort-storm health check. [oracles] additionally enables
      the {!Numa_check.Oracle} cohort-handoff-legality and FIFO checks
      appropriate to a plain case's lock; they consume the trace stream,
      so they engage only when [RT.deterministic] (default [false]).
      [topology] overrides the generated flat machine (the [--topology]
      CLI flag); cases with more threads than it has contexts run
      oversubscribed. *)
end
