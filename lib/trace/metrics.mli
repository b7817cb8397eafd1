(** Per-lock metric rollup over a captured event window — the
    quantitative face of the paper's explanations: how often the lock
    migrated between clusters, how long cohort handoff runs (batches)
    grew, how the hold-time distribution looks, and how often the
    starvation bound had to intervene. Computed host-side from a
    {!Ring} capture; wait-time quantiles come from the benchmark core's
    own acquire-latency histogram and are threaded in by the caller. *)

type t = {
  events : int;  (** events in the captured window. *)
  acquires : int;
  local_acquires : int;  (** arrived via within-cohort handoff. *)
  global_acquires : int;
  handoffs_within_cohort : int;
  handoffs_global : int;
  aborts : int;
  starvation_limit_hits : int;
  migrations : int;  (** cluster changes between consecutive acquires. *)
  migration_rate : float;  (** migrations / acquires. *)
  batches : int;
  batch_mean : float;  (** acquisitions per global-lock tenure. *)
  batch_p50 : float;
  batch_max : int;
  hold_p50 : float;  (** ns from acquire to release, same thread. *)
  hold_p99 : float;
  hold_mean : float;
  wait_p50 : float;  (** ns, from the benchmark's latency histogram. *)
  wait_p99 : float;
}

(** The one migration rule, shared by the benchmark loop and
    {!of_events}: the first acquisition is not a migration; afterwards
    each acquisition whose cluster differs from the previous one's is. *)
module Migrations : sig
  type t

  val create : unit -> t

  val note : t -> cluster:int -> unit
  (** One acquisition, on [cluster]. *)

  val count : t -> int
end

val of_events : ?wait_p50:float -> ?wait_p99:float -> Event.t list -> t
(** Events must be chronological. Quantile fields are [nan] when the
    window holds no sample. *)

val render_timeline : ?width:int -> Event.t list -> string
(** An ASCII chart of lock ownership over a chronological event window:
    each of [width] (default 80) columns is a time bucket showing the
    digit of the cluster that held the lock — painted from each acquire
    to the next release — or ['.'] when it was free. *)

val to_fields : t -> (string * float) list
(** Flat metric list, integral values exact — the form merged into
    [BENCH_*.json] entries. *)
