(** Discrete-event simulation engine.

    Simulated threads are OCaml 5 effect fibers. A shared-memory
    operation performed through {!Sim_mem} (the engine's own {!Mem}
    primitives) is charged latency from the {!Coherence} and
    {!Interconnect} models and completes at the corresponding simulated
    time: either inline, when the fast path proves its completion would
    be the very next event run (see "Fast path" below), or by suspending
    the fiber until the engine resumes it. Events at equal times run in
    issue order, so a run is a pure function of its inputs.

    A thread body must eventually return (e.g. by checking
    [Sim_mem.now ()] against a deadline); without a [horizon] the engine
    runs until every fiber has finished. If the event queue drains while
    fibers are still blocked on {!Sim_mem.wait_until}, the run is
    genuinely deadlocked and {!Deadlock} is raised — mutual-exclusion
    bugs fail loudly under test rather than hanging.

    However a run stops — every fiber finished, the horizon or the event
    cap reached, {!Deadlock} or {!Thread_failure} raised — it leaves no
    fiber suspended: each unfinished one is discontinued once, so its
    stack is freed (OCaml frees a suspended fiber's stack only when the
    fiber ends). The exception unwinds the fiber's body, running its
    [Fun.protect] finalisers; no pending operation completes, nothing
    wakes, and any simulated operation a finaliser issues is abandoned
    the same way, so no cell changes. A body must not catch every
    exception. *)

(** {1 Events and results}

    Every event the engine runs has a class: it labels the candidates a
    scheduling policy is shown (below) and keys the run's event ledger. *)

type ev_class =
  | Start  (** a thread's first step. *)
  | Op_read
  | Op_write
  | Op_rmw  (** completion (linearisation) of a memory operation. *)
  | Spin_check  (** first predicate check of a [wait_until]. *)
  | Spin_wake  (** charged re-check after a wake-up write. *)
  | Timeout  (** expiry of a [wait_until_for] deadline. *)
  | Resume  (** end of a [pause]. *)

val class_to_string : ev_class -> string

type result = {
  end_time : int;  (** simulated ns at which the last event ran. *)
  events : int;  (** total events processed, inlined ones included. *)
  threads_finished : int;
  classes : Numa_base.Runtime_intf.event_class list;
      (** the event ledger: one row per {!ev_class}, in declaration
          order, named by {!class_to_string}, with the events of the
          class retired inline by the fast path (see {!set_fastpath};
          in explore mode forced steps only) and those run from the
          pending set apart; the counts sum to [events]. Which events
          retired inline is diagnostic only: the per-class totals,
          every other field and the schedule itself are independent of
          the fast path. *)
  tiers : Numa_base.Runtime_intf.queue_tiers;
      (** the scheduled events by the queue tier each was added to;
          zeros in explore mode, which has no queue. Like the
          inlined/scheduled split, it depends on the fast path. *)
  profile : Numa_trace.Profile.t;
      (** the run's coherence totals and interconnect statistics
          (aggregate and per level, outermost level first; a single
          level on flat machines), and the per-site attribution table
          when run with [~profile:true] ([[]] otherwise). *)
}

exception Deadlock of { live : int; blocked : int; at : int }
(** [live] fibers had not finished; [blocked] of them were parked in an
    untimed [wait_until]. *)

exception Thread_failure of { tid : int; exn : exn; backtrace : string }
(** An exception escaped a thread body; the run is aborted. This is
    {!Numa_base.Runtime_intf.Thread_failure} itself (the implementation
    rebinds it), so a match on either name catches it. *)

(** {1 Scheduling policy (schedule exploration)}

    With no policy, the engine pops events from a (time, issue-order)
    min-heap — the historical deterministic schedule. A [policy] replaces
    the pop: at every step it is shown the engine's pending set itself,
    sorted in that same (time, issue-order) order, and picks one by
    index. Index 0 is always the event the default schedule would run,
    so the constant-0 policy replays the default schedule exactly.
    Out-of-range answers are clamped to 0. Simulated time never goes
    backwards: running an event whose timestamp is in the past executes
    it at the current time. *)

type thunk
(** What a pending event runs; opaque, so a policy cannot run it. *)

type candidate = private {
  c_time : int;  (** scheduled simulated time. *)
  c_tid : int;  (** thread the event belongs to. *)
  c_class : ev_class;
  c_line : string;  (** name of the cache line involved, or ["(engine)"]. *)
  c_run : thunk;
}
(** One pending event, as the engine holds it: the record is made when
    the event is scheduled and never copied for a policy. A policy sees
    candidates in the engine's pending array (see {!policy}): only
    indices below [n] are candidates, and the array is valid only for
    the call. *)

type policy = step:int -> n:int -> candidate array -> int
(** [policy ~step ~n pending] returns the index of the event to run at
    decision [step] (0-based, counted over every event including forced
    singleton choices). [pending] is the engine's pending set: only
    indices below [n] are candidates ([n >= 1]); later slots are
    unspecified. The array is valid only for the duration of the call:
    the engine shifts it in place afterwards, so a policy must not keep
    it, write to it, or read it after returning. The records themselves
    are immutable, so keeping one is safe. A forced singleton
    step may be presented from inside the running fiber (see "Fast
    path" below), so a policy must not raise or call into {!Sim_mem}. *)

val run :
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  ?horizon:int ->
  ?policy:policy ->
  ?max_events:int ->
  ?profile:bool ->
  ?trace:Numa_trace.Sink.t ->
  (tid:int -> cluster:int -> unit) ->
  result
(** [run ~topology ~n_threads body] starts [n_threads] fibers; thread
    [tid] runs [body ~tid ~cluster] with its cluster given by
    [Topology.cluster_of_thread]. Thread starts are staggered by 1 ns per tid to
    break symmetry deterministically.

    [n_threads] may exceed the machine's hardware contexts
    ([Topology.total_threads]): the surplus logical threads wrap onto
    contexts via [Topology.context_of_thread] (oversubscription), sharing
    their context's cluster. The simulation is still
    deterministic — fibers are cooperative, so wrapping changes placement
    only, not the event machinery.

    [horizon] is a hard stop: events after it are discarded, the
    fibers still running are unwound (above), and the run returns with
    [threads_finished < n_threads] instead of raising. Every measured
    run ends at its deadline this way ({!Sim_runtime.run} passes
    [stop_after] as the horizon; the KV-store, allocator and RW runs
    pass theirs): nothing after the horizon can change what happened
    before it, and the result's statistics then cover the window alone.
    It applies to the default heap schedule only; under a [policy] use
    [max_events] instead.

    [policy] switches the engine into explore mode (see above).
    [max_events] bounds the number of events processed in explore mode
    only; reaching the bound returns with [threads_finished < n_threads]
    instead of raising [Deadlock] — a livelock backstop.

    [profile] turns on per-site coherence attribution (the site table
    of the run's [result.profile]); [trace] receives one
    {!Numa_trace.Event.Coh_transfer} or [Coh_invalidate] event per
    cross-cluster transaction. Both are
    stats-/event-side only — a profiled or coherence-traced run is
    schedule-identical to a plain one (pinned by test_profile). The
    coherence trace is deliberately a separate sink from lock-event
    tracing: it fires per remote transaction and would flood a lock-event
    rollup ring.

    @raise Invalid_argument if [n_threads < 1], if [horizon] is given
    with a [policy], or if [max_events] is given without one: each mode
    has its own stop rule and would ignore the other's. *)

(** {1 Fast path}

    Heap-mode runs retire eligible accesses inline — no effect perform,
    no heap event — when doing so is provably indistinguishable from
    the effect path: {!Coherence.classify} finds an epoch-current
    same-domain hit (for writes, on a waiterless line) whose completion time strictly precedes every
    pending heap event and fits the horizon, i.e. it would have been
    the very next event popped anyway. Explore mode (a [policy])
    inlines only forced steps: an access or pause issued while no other
    event is pending, whose completion would be the sole candidate of
    the next step. The policy is still shown that one-candidate step, so
    it sees every step and every decision point. See doc/SIMULATOR.md
    "Engine fast path" for the full argument. *)

val set_fastpath : bool -> unit
(** Process-wide toggle, default on, read when a run starts (a run
    keeps the setting it started with). Turning it off forces every
    operation through the effect handler — same schedules, same stats,
    same artifacts, byte for byte (pinned by test_fastpath and the CI
    determinism stage); only host speed and which events retire inline
    (the split of each [result.classes] row, and [result.tiers]) change.
    For A/B measurement (the repo benchmark's
    [engine.fastpath_saving_pct]) and differential testing. *)

val fastpath_enabled : unit -> bool

(** {1 Memory primitives} *)

module Mem : Numa_base.Memory_intf.MEMORY with type line = Coherence.line
(** The simulated {!Numa_base.Memory_intf.MEMORY}, re-exported verbatim
    as {!Sim_mem} (see there for the contract). The primitives live in
    the engine's compilation unit so that the fast path inlines into
    each of them. A line is a {!Coherence.line} (read-only outside
    [Coherence]), so the engine's tests can inspect the lines they
    build; {!Sim_mem} keeps the type abstract. *)
