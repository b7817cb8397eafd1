(** Bounded schedule exploration over the simulator (dscheck-style
    stateless model checking).

    A {!scenario} packages a lock, a small topology and a workload of a
    few critical sections per thread, wrapped in the {!Oracle} checks for
    that lock. Each schedule is a fresh run of the scenario under an
    [Engine] policy driven by a {!Decision.t}; exploration re-executes
    from the start per schedule (no state capture), so everything a run
    observes is a pure function of its decision trace.

    Three drivers: {!exhaustive} (BFS over all traces with at most
    [preemptions] deviations, for small configurations), {!fuzz}
    (weighted-random deviations from {!Numa_base.Prng}, for larger ones)
    and {!run_once} (replay). {!shrink} greedily minimises a failing
    trace — judging every candidate by re-running it and requiring the
    same invariant to fail — and {!counterexample} re-runs a trace with
    recording on to produce a printable interleaving. *)

type scenario = {
  sc_name : string;
  sc_topology : Numa_base.Topology.t;
  sc_n_threads : int;
  sc_sections : int;  (** critical sections per thread. *)
  sc_max_events : int;  (** livelock backstop (engine [max_events]). *)
  sc_prepare :
    unit ->
    (tid:int -> cluster:int -> unit) * (unit -> Violation.t option);
      (** fresh lock + oracle per run: returns the thread body and a
          final check evaluated after a completed run. *)
}

val scenario :
  ?checks:Oracle.checks ->
  ?topology:Numa_base.Topology.t ->
  ?n_threads:int ->
  ?sections:int ->
  ?max_events:int ->
  ?cfg:Cohort.Lock_intf.config ->
  (module Cohort.Lock_intf.LOCK) ->
  scenario
(** Defaults: {!Oracle.for_lock} checks (on the name with any ["!mutant"]
    marker stripped), [Topology.small], 3 threads (so two share cluster
    0 under round-robin — a cohort exists), 3 sections, and a config with
    [max_local_handoffs = 2] so the starvation limit is reachable. The
    critical section is a non-atomic read-increment-write of a shared
    cell, checked against the expected total at the end of the run. *)

type outcome = Pass | Fail of Violation.t

type run = {
  outcome : outcome;
  taken : Decision.t;
      (** deviations actually applied (clamped/no-op picks dropped) —
          the canonical replayable trace of this run. *)
  steps : Decision.step list;  (** executed events, when [record]. *)
}

val run_once : ?record:bool -> scenario -> Decision.t -> run
(** Replay a decision trace. Deterministic: same scenario + same trace =
    same run, bit for bit. *)

type exhaustive_report = {
  schedules : int;  (** runs executed. *)
  pruned : int;
      (** child deviations suppressed by the reduction (0 when [prune]
          is off). *)
  exhausted : bool;
      (** every trace within the preemption bound was run (budget not
          hit, no failure cut the search short); under [prune], modulo
          the reduction. *)
  failure : (Decision.t * Violation.t) option;
}

val exhaustive :
  ?preemptions:int -> ?budget:int -> ?prune:bool -> scenario ->
  exhaustive_report
(** BFS over deviation sequences: a child extends a passing parent with
    one deviation at a decision point after the parent's last. Defaults:
    [preemptions = 2], [budget = 10_000] runs, [prune = false].

    A deviation may pick any non-default candidate except a Timeout.
    [prune] enables a sleep-set-style reduction: a deviation is not
    enqueued when its event shares neither a thread nor a cache line
    with any event it would jump over (and is not an RMW), so promoting
    it commutes with all of them and yields a schedule equivalent to one
    reached by deviating later. The pruned BFS visits a subset of the
    full search in the same order, so a clean verdict is conserved and
    any failure it reports is real; completeness under the reduction is
    validated empirically by the mutant cross-checks in
    test_explore.ml.

    Alternatives are collected only where a child can branch: after the
    trace's last deviation, and only while the trace is under the
    bound. *)

type fuzz_report = {
  fuzz_runs : int;
  fuzz_failure : (Decision.t * Violation.t) option;
}

val fuzz : seed:int -> runs:int -> scenario -> fuzz_report
(** Random schedules: at each decision point deviate with probability
    0.1, picking alternative [j] with weight [1/(j+1)]. The recorded
    trace of a failing run replays it exactly. *)

type counterexample = {
  ce_trace : Decision.t;
  ce_violation : Violation.t;
  ce_steps : Decision.step list;
}

val shrunk_counterexample :
  scenario -> Decision.t * Violation.t -> counterexample option
(** Greedy minimisation of a failing trace (drop deviations to a
    fixpoint, then lower the surviving picks, accepting a candidate only
    if the same invariant still fails), re-run with recording; [None] if
    the shrunk trace no longer fails. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
(** Violation, decision trace, and the (tail of the) interleaving. *)
