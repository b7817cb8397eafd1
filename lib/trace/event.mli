(** The lock-event vocabulary of the tracing layer (see doc/SIMULATOR.md,
    "Tracing").

    Events are the per-acquisition facts the paper reasons with: where
    ownership went ({!Acquire_local} vs {!Acquire_global}), how it was
    surrendered ({!Handoff_within_cohort} vs {!Handoff_global}), and the
    two exceptional outcomes (timeout {!Abort}, may-pass-local budget
    exhaustion {!Starvation_limit_hit}). Timestamps come from the memory
    substrate's monotonic clock at the instrumentation site, so on the
    simulator they are deterministic simulated nanoseconds and on the
    native runtime wall-clock nanoseconds. *)

type kind =
  | Acquire_local
      (** the lock arrived via an intra-cluster handoff: the new holder
          inherited global ownership from its cohort. *)
  | Acquire_global
      (** the holder had to take the global lock itself (first acquirer
          of a batch, or a non-cohort lock's ordinary acquire). *)
  | Handoff_within_cohort
      (** released to a waiting cohort member at local-lock cost. *)
  | Handoff_global
      (** the global lock was surrendered (batch over, or a non-cohort
          lock's ordinary release). *)
  | Abort  (** a timed acquire gave up ([try_acquire] returned false). *)
  | Starvation_limit_hit
      (** the may-pass-local policy forced a global release even though
          cohort waiters existed (bound reached or time budget spent). *)
  | Enqueue
      (** the thread joined a FIFO queue lock's wait queue (the ticket
          FAA, or the MCS/CLH tail swap). Emitted only by the plain
          queue locks; the linearisation point of queue order, which the
          FIFO oracle checks acquires against. *)
  | Gcr_admit
      (** a thread won a slot in a GCR wrapper's active set (after the
          admission CAS, before the inner acquire). The admission oracle
          counts these against [gcr_max_active]. *)
  | Gcr_exit
      (** a GCR active thread is leaving the active set (emitted in
          release, before the slot is surrendered or transferred). *)
  | Gcr_park
      (** a thread joined a GCR wrapper's passive list (after publishing
          its slot, before blocking). *)
  | Gcr_unpark
      (** a parked thread observed its promotion grant and re-entered the
          active set (it inherits the promoting thread's slot, so no
          [Gcr_admit] follows). *)

type t = { at : int;  (** ns, substrate clock. *) tid : int; cluster : int; kind : kind }

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val is_acquire : kind -> bool
(** [Acquire_local] or [Acquire_global]. *)

val is_release : kind -> bool
(** [Handoff_within_cohort] or [Handoff_global]. *)
