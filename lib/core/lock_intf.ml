(** Lock signatures and the cohort-lock component contracts.

    The paper builds a NUMA-aware lock out of two ingredients
    (section 2.1):
    - a {e thread-oblivious} global lock [G]: the thread that releases it
      may differ from the thread that acquired it;
    - per-cluster {e cohort-detecting} local locks [S_i]: a releasing
      thread can ask whether some other thread is concurrently trying to
      acquire the local lock ([alone?]).

    These contracts are captured by {!GLOBAL} and {!LOCAL} below; the
    transformation itself is {!Cohorting.Make}, and {!ABORTABLE_LOCAL} is
    the contract of its abortable form, {!Cohorting.Abortable}. *)

(** When must a cohort surrender the global lock? The paper's
    may-pass-local predicate "could, for example, be based on how long the
    global lock has been continuously held on one cluster or on a count of
    the number of times the local lock was acquired in succession"
    (section 2.1); its evaluation uses the count with bound 64
    (section 3.7). All four variants are provided; see the
    [ablation-policy] experiment for their throughput/fairness trade-off. *)
type handoff_policy =
  | Counted
      (** release after [max_local_handoffs] consecutive local handoffs —
          the paper's evaluated policy. *)
  | Timed of int
      (** release once the cohort has retained the global lock for this
          many ns. *)
  | Counted_or_timed of int
      (** release at [max_local_handoffs] handoffs {e or} after this many
          ns, whichever first. *)
  | Unbounded  (** never voluntarily release (deeply unfair). *)

(** Backoff window of the BO-family locks (BO, Fib-BO and the BO tiers
    of the cohort locks), ns. *)
let bo_min = 100

let bo_max = 10_000

type config = {
  clusters : int;  (** number of NUMA clusters. *)
  max_threads : int;  (** upper bound on registered threads. *)
  max_local_handoffs : int;
      (** the may-pass-local bound: how many consecutive times a cohort
          may pass the lock locally before it must release the global
          lock (64 in the paper, section 3.7). *)
  handoff_policy : handoff_policy;
  hbo_local_min : int;  (** HBO backoff when the holder is local, ns. *)
  hbo_local_max : int;
  hbo_remote_min : int;  (** HBO backoff when the holder is remote, ns. *)
  hbo_remote_max : int;
  gcr_max_active : int;
      (** GCR admission bound: at most this many threads may hold or
          actively compete for a {!Gcr_lock}-wrapped lock; the overflow
          parks on the passive list. *)
  gcr_rotate_every : int;
      (** GCR rotation period: every this-many lock grants the releaser
          promotes the oldest passive waiter instead of merely retiring,
          which bounds passive-list starvation. *)
  trace : Numa_trace.Sink.t;
      (** where instrumented locks emit {!Numa_trace.Event} records.
          [Sink.noop] (the default) disables tracing: instrumentation
          sites branch on [Sink.enabled] and perform no clock read, no
          allocation and no memory operation, so untraced behaviour —
          including every golden pin — is unchanged. *)
}

let default =
  {
    clusters = 4;
    max_threads = 256;
    max_local_handoffs = 64;
    handoff_policy = Counted;
    hbo_local_min = 100;
    hbo_local_max = 2_000;
    hbo_remote_min = 800;
    hbo_remote_max = 50_000;
    gcr_max_active = 4;
    gcr_rotate_every = 64;
    trace = Numa_trace.Sink.noop;
  }

(** A mutual-exclusion lock. [register] hands out a per-thread handle
    carrying thread identity and any per-thread lock state (queue nodes,
    pools); a handle must only be used by its registering thread, and
    every [acquire] must be matched by a [release] from the same handle.

    Lock state (cells) is created by [create], so a lock instance may be
    built before a simulation run starts. *)
module type LOCK = sig
  type t
  type thread

  val name : string
  val create : config -> t
  val register : t -> tid:int -> cluster:int -> thread
  val acquire : thread -> unit
  val release : thread -> unit
end

(** A lock supporting timeout (the paper's "abortable" property,
    section 3.6). *)
module type ABORTABLE_LOCK = sig
  type t
  type thread

  val name : string
  val create : config -> t
  val register : t -> tid:int -> cluster:int -> thread

  val try_acquire : thread -> patience:int -> bool
  (** [try_acquire th ~patience] attempts to acquire for at most
      [patience] ns; [false] means the attempt was abandoned and the
      caller must not enter the critical section (and must not call
      [release]). *)

  val release : thread -> unit
end

type release_kind =
  | Local_release
      (** the previous holder passed the lock within the cohort: the new
          holder implicitly owns the global lock. *)
  | Global_release
      (** the global lock was released (or never held by this cluster):
          the new local holder must acquire it. *)

(** The global-lock contract: thread-obliviousness means [release] may be
    called from a different thread handle than the one that acquired. *)
module type GLOBAL = sig
  type t
  type thread

  val create : config -> t
  val register : t -> tid:int -> cluster:int -> thread
  val acquire : thread -> unit
  val release : thread -> unit
end

(** The local-lock contract: cohort detection plus a release state.

    [acquire] returns how the lock reached this thread. [alone th] may
    only be called by the current holder; a [false] result must imply
    that some concurrent acquirer will eventually complete its acquire
    (no false negatives that strand the global lock — the paper's
    definition allows false {e positives} only, which merely cause an
    unnecessary global release). [release th kind] publishes [kind] to
    the next local acquirer. *)
module type LOCAL = sig
  type t
  type thread

  val create : config -> t
  val register : t -> tid:int -> cluster:int -> thread
  val acquire : thread -> release_kind
  val alone : thread -> bool
  val release : thread -> release_kind -> unit
end

(** How a timed local acquire ended (see {!ABORTABLE_LOCAL}). *)
type attempt =
  | Granted of release_kind  (** the local lock is held. *)
  | Aborted  (** the deadline passed; nothing is held. *)
  | Rescued
      (** the deadline passed, but the thread took a stranded
          release-local state on its way out: it holds the cohort lock
          and must release it globally (section 3.6.1). *)

(** What a holder's within-cohort handoff attempt did. *)
type handoff =
  | Passed  (** a cohort peer takes the lock in [Local_release] state. *)
  | Reclaimed
      (** published, then taken back because its takers aborted: the
          local lock is free in [Global_release] state, the global lock
          still held. *)
  | Declined  (** nothing published: release globally. *)

(** The local-lock contract of the abortable cohort locks (section 3.6,
    {!Cohorting.Abortable}): {!LOCAL} with timeouts, where a peer the
    holder passes the lock to never aborts afterwards, or the handoff is
    reclaimed or rescued, so the global lock is never stranded.

    [register] takes the thread's one backoff sequence, which the global
    lock's acquire shares. [try_acquire ~deadline] waits until the
    absolute time [deadline]. [pass] calls [may_pass] once, where the
    protocol decides, and [commit] once before it publishes a handoff,
    where it counts it: a taker may release globally, resetting the
    count, as soon as the handoff is visible. A handoff that then fails
    returns [Declined], whose global release resets the count. [release]
    publishes [Global_release], also to undo a grant whose global
    acquire timed out. *)
module type ABORTABLE_LOCAL = sig
  type t
  type thread

  val create : config -> t
  val register : t -> Backoff.t -> thread
  val try_acquire : thread -> deadline:int -> attempt

  val pass :
    thread -> may_pass:(unit -> bool) -> commit:(unit -> unit) -> handoff

  val release : thread -> unit
end

(** A NUMA-aware reader-writer lock (see {!Rw_cohort}): many concurrent
    readers or one writer. Reader handles and writer acquisition may be
    used from any registered thread, with the usual one-thread-per-handle
    discipline. *)
module type RW_LOCK = sig
  type t
  type thread

  val name : string
  val create : config -> t
  val register : t -> tid:int -> cluster:int -> thread
  val read_lock : thread -> unit
  val read_unlock : thread -> unit
  val write_lock : thread -> unit
  val write_unlock : thread -> unit
end
