(** An in-memory key-value store modelled on memcached's hash table, for
    the Table 1 experiment.

    All operations must be called with an external cache lock held (as in
    memcached); what the module provides is the {e memory behaviour} of
    the store under that lock: per-bucket tag lines, per-item lines
    carrying the value and a rate-limited LRU stamp, and per-thread
    statistics counters (deliberately not a shared hot line, as in
    memcached). The request parsing/response work outside the lock is the
    harness's job to model. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  type t

  val create : ?max_threads:int -> n_buckets:int -> unit -> t
  (** @raise Invalid_argument if [n_buckets <= 0]. *)

  val n_items : t -> int

  val get : t -> tid:int -> int -> int option
  (** Lookup; touches the bucket line, the item line, and bumps the
      calling thread's stats counter. *)

  val set : t -> tid:int -> int -> int -> unit
  (** Insert or update; additionally dirties the bucket line (LRU chain
      maintenance). *)

  val populate : t -> n_keys:int -> unit
  (** Pre-load keys [0..n_keys-1] with value = key, without charging
      simulated time (host-side setup). *)

  val reset : t -> unit
  (** Restore the state {!populate} left: every value is its key again,
      every LRU stamp and every bucket and stats counter is 0, and any
      item a {!set} inserted is removed. Host-side, between runs (it
      writes through [MEMORY.init]), so one store can serve many runs.
      It re-initialises only the cells the operations since the last
      reset may have written, tracked host-side. *)

  val cells : t -> int M.cell list
  (** Every cell of the store, in a fixed order: each bucket's tag and
      then its items' value and LRU cells, in chain order; then the
      stats counters. For tests that compare two stores. *)
end
