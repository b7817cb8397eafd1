(** The abstract shared-memory substrate that every lock algorithm in this
    repository is written against.

    There are two implementations:
    - {!Numasim.Sim_mem}: every operation is charged by the
      discrete-event simulation engine, which takes latency from a
      cache-coherence model and advances simulated time (inline on its
      fast path, otherwise through an OCaml effect);
    - {!Numa_native.Nat_mem}: operations map directly onto [Atomic], for
      real multicore execution.

    Writing each algorithm once as a functor over [MEMORY] guarantees the
    benchmarked algorithm and the shipped algorithm are the same code.

    The substrate knows nothing of thread identity. A lock learns its
    caller's tid and cluster once, from the [~tid ~cluster] arguments of
    its [register], and carries them in the handle ([Cohort.Instr]). *)

module type MEMORY = sig
  type line
  (** A cache line: the unit of coherence. Cells placed on the same line
      share transfer/invalidation behaviour (and false-sharing costs). *)

  type 'a cell
  (** A shared memory word holding a value of type ['a]. *)

  val line : ?name:string -> unit -> line
  (** Allocate a fresh cache line. [name] labels the allocation site: it
      is used in traces and keys the coherence profiler's per-site
      attribution, so lock functors should label every line they allocate
      (e.g. ["mcs.tail"]). *)

  val line_site : line -> string
  (** The line's allocation-site label; [""] if it was not labelled. *)

  val cell : line -> 'a -> 'a cell
  (** [cell l v] allocates a cell on line [l] with initial value [v]. *)

  val cell' : ?name:string -> 'a -> 'a cell
  (** [cell' v] allocates a cell on a fresh private line: the common case
      for lock words, which must not false-share. *)

  val init : 'a cell -> 'a -> unit
  (** [init c v] sets [c]'s value from the host, like the initial value
      given to {!cell}: it charges nothing and wakes nobody. Call it only
      between runs (e.g. to restore a long-lived structure before the
      next one), never from a thread body. *)

  val read : 'a cell -> 'a

  val write : 'a cell -> 'a -> unit

  val cas : 'a cell -> expect:'a -> desire:'a -> bool
  (** Atomic compare-and-swap. Comparison is physical equality ([==]), as
      with [Atomic.compare_and_set]: use immediate values (ints,
      constant constructors) or compare-by-identity records. *)

  val swap : 'a cell -> 'a -> 'a
  (** Atomic exchange; returns the previous value. *)

  val fetch_and_add : int cell -> int -> int
  (** Atomic fetch-and-add; returns the previous value. *)

  val wait_until : 'a cell -> ('a -> bool) -> 'a
  (** [wait_until c p] blocks the calling thread until [p v] holds for the
      current value [v] of [c], and returns that value. This models
      test-and-test-and-set style local spinning: under a coherence
      protocol a spinner hits its local cache until the line is
      invalidated by a writer, so the simulator wakes waiters only on
      writes to the line. The predicate must be pure and depend only on
      the value it is given — not on other cells, refs or mutable fields
      reachable from that value: the simulator re-checks parked
      predicates only after a store that physically changes a value on
      the line, and skips the re-check after a failed CAS or a store of
      the value already there. *)

  val wait_until_for : 'a cell -> ('a -> bool) -> timeout:int -> 'a option
  (** Like {!wait_until} (same contract on the predicate) but gives up
      after [timeout] ns, returning [None]. Used by abortable
      (timeout-capable) locks. *)

  val pause : int -> unit
  (** [pause ns] delays the calling thread for [ns] nanoseconds without
      touching shared memory (backoff, non-critical-section work). *)

  val cpu_relax : unit -> unit
  (** A minimal-cost pause hint for tight retry loops. *)

  val now : unit -> int
  (** Nanoseconds since the start of the run (simulated or monotonic). *)
end
