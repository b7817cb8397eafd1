(** The abstract execution substrate that the experiment harness is
    written against — the runtime-side counterpart of {!Memory_intf}.

    A {!RUNTIME} knows how to start [n] threads placed on clusters by a
    {!Topology}, give them a shared stop flag and barriers, and report
    aggregate statistics when every thread has finished. There are two
    implementations:
    - {!Numasim.Sim_runtime}: wraps [Engine.run]; threads are effect
      fibers, runs are deterministic, and the coherence statistics of the
      simulation are reported;
    - {!Numa_native.Nat_runtime}: threads are [Domain]s with their
      declared cluster registered in [Nat_mem]; timing is wall-clock.

    Writing harness components (benchmark cores, stress campaigns,
    conformance checks) once over [MEMORY] x [RUNTIME] guarantees the
    measured harness and the shipped harness are the same code, exactly
    as the locks themselves are written once over [MEMORY]. *)

type event_class = {
  ec_class : string;  (** the engine's name for the event class. *)
  ec_inlined : int;  (** events retired inline by the engine fast path. *)
  ec_scheduled : int;  (** events run from the engine's pending set. *)
}
(** One row of the simulation engine's event ledger. *)

type run_stats = {
  elapsed_ns : int;
      (** simulated end time, or wall-clock ns from first spawn to last
          join. *)
  threads_finished : int;
  coherence : Numa_trace.Profile.coherence option;
      (** the run's full engine-global coherence counters; simulation
          substrate only. *)
  interconnect : Numa_trace.Profile.interconnect option;
      (** interconnect occupancy/queueing stats; simulation substrate
          only. *)
  interconnect_levels : Numa_trace.Profile.interconnect_level list option;
      (** per-level interconnect stats, outermost level first; simulation
          substrate only. *)
  sim_events : int option;  (** simulation substrate only. *)
  event_classes : event_class list option;
      (** [sim_events] by class, inlined and scheduled apart; simulation
          substrate only. Which events inline depends on the fast path;
          the per-class totals do not. *)
  sites : Numa_trace.Profile.site list option;
      (** per-site coherence attribution; [Some] iff the run was both on
          the simulation substrate and started with [~profile:true]. *)
}

exception Thread_failure of { tid : int; exn : exn; backtrace : string }
(** An exception escaped a thread body; the run is aborted. Both
    runtimes translate their internal failure reports into this one
    exception so substrate-generic callers can match on it. *)

module type RUNTIME = sig
  val name : string

  val deterministic : bool
  (** [true] when a run is a pure function of its inputs (the
      simulator); [false] under real parallelism. *)

  type stop_flag
  (** A cooperative shutdown signal visible to every thread of a run.
      Under the simulator the deadline given to {!run} is part of the
      flag, so polling it is the deterministic analogue of checking the
      clock. *)

  val request_stop : stop_flag -> unit
  val stopped : stop_flag -> bool

  type barrier

  val make_barrier : n:int -> barrier
  (** A reusable-once rendezvous for [n] threads. Creation is pure (may
      happen before the run starts). *)

  val await : barrier -> unit
  (** Blocks until [n] threads have arrived. *)

  val now : unit -> int
  (** Monotonic nanoseconds. Inside a run only for the simulated
      runtime; any time for the native one. *)

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
      clusters), and the call returns when every thread has.
      [stop_after] arms the stop flag [stop_after] ns into the run;
      bodies poll [stopped] and wind down cooperatively. [profile] asks
      for per-site coherence attribution ([run_stats.sites]); runtimes
      that cannot attribute (the native one) accept and ignore it.

      [n_threads] may exceed [Topology.total_threads topology]: surplus
      logical threads wrap onto hardware contexts via
      [Topology.context_of_thread] (oversubscription) and inherit the
      wrapped context's cluster.

      @raise Invalid_argument if [n_threads] < 1.
      @raise Thread_failure if an exception escapes a thread body. *)
end
