(** The abstract execution substrate that the experiment harness is
    written against — the runtime-side counterpart of {!Memory_intf}.

    A {!RUNTIME} knows how to start [n] threads placed on clusters by a
    {!Topology}, give them a shared stop flag, and report the run's
    statistics when it ends. There are two implementations:
    - {!Numasim.Sim_runtime}: wraps [Engine.run]; threads are effect
      fibers, runs are deterministic, and the engine's [Profile.t] and
      event ledger are reported;
    - {!Numa_native.Nat_runtime}: threads are [Domain]s with their
      declared cluster registered in [Nat_mem]; timing is wall-clock.

    Writing harness components (benchmark cores, stress campaigns,
    conformance checks) once over [MEMORY] x [RUNTIME] guarantees the
    measured harness and the shipped harness are the same code, exactly
    as the locks themselves are written once over [MEMORY]. A body reads
    the clock with [MEMORY]'s [now]. *)

type event_class = {
  ec_class : string;  (** the engine's name for the event class. *)
  ec_inlined : int;  (** events retired inline by the engine fast path. *)
  ec_scheduled : int;  (** events run from the engine's pending set. *)
}
(** One row of the simulation engine's event ledger. *)

type queue_tiers = {
  qt_near : int;  (** events added to the near tier's 1-ns buckets. *)
  qt_coarse : int;  (** events added to the coarse tier's buckets. *)
  qt_overflow : int;  (** events added to the overflow heap. *)
}
(** The simulation engine's scheduled events by the tier of its event
    queue that each was added to (a later cascade or migration does not
    move the count). A host-cost split: the schedule does not depend on
    it. *)

type run_stats = {
  elapsed_ns : int;
      (** simulated end time, or wall-clock ns from first spawn to last
          join. *)
  threads_finished : int;
  profile : Numa_trace.Profile.t option;
      (** the run's coherence totals and interconnect statistics, with
          the per-site table when the run was started with
          [~profile:true]; simulation substrate only. *)
  sim_events : int option;  (** simulation substrate only. *)
  event_classes : event_class list option;
      (** [sim_events] by class, inlined and scheduled apart; simulation
          substrate only. Which events inline depends on the fast path;
          the per-class totals do not. *)
  queue_tiers : queue_tiers option;
      (** scheduled events by queue tier; simulation substrate only. *)
}

exception Thread_failure of { tid : int; exn : exn; backtrace : string }
(** An exception escaped a thread body; the run is aborted. It is the
    one failure report of both runtimes: [Engine.Thread_failure] is
    this exception, and the native runtime raises it after the join, so
    substrate-generic callers match on it alone. *)

module type RUNTIME = sig
  val deterministic : bool
  (** [true] when a run is a pure function of its inputs (the
      simulator); [false] under real parallelism. *)

  type stop_flag
  (** A shutdown signal visible to every thread of a run, raised at the
      deadline given to {!run} (natively, also when a thread fails).
      Under the simulator the flag is the deadline itself, so polling
      it is the deterministic analogue of checking the clock. *)

  val stopped : stop_flag -> bool

  val run :
    topology:Topology.t ->
    n_threads:int ->
    ?stop_after:int ->
    ?profile:bool ->
    (stop:stop_flag -> tid:int -> cluster:int -> unit) ->
    run_stats
  (** [run ~topology ~n_threads body] starts [n_threads] threads; thread
      [tid] runs [body ~stop ~tid ~cluster] on cluster
      [Topology.cluster_of_thread topology tid] (round-robin over the
      clusters). [stop_after] arms the stop flag [stop_after] ns into
      the run, and bodies poll [stopped] and wind down cooperatively;
      work done after the flag is set is outside the run's window, and
      a caller that measures counts none of it. The simulated runtime
      ends the run at [stop_after], leaving unfinished the threads
      still busy there; otherwise (natively, or without [stop_after])
      the call returns when every thread has. [profile] asks
      for per-site coherence attribution (the site table of
      [run_stats.profile]); runtimes that cannot attribute (the native
      one) accept and ignore it.

      [n_threads] may exceed [Topology.total_threads topology]: surplus
      logical threads wrap onto hardware contexts via
      [Topology.context_of_thread] (oversubscription) and inherit the
      wrapped context's cluster.

      @raise Invalid_argument if [n_threads] < 1.
      @raise Thread_failure if an exception escapes a thread body. *)
end
