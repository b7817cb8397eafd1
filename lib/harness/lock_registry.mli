(** The full paper line-up of locks, grouped as in the paper's
    evaluation, with per-lock configuration tweaks (notably the two HBO
    parameterisations whose instability Tables 1-2 demonstrate).

    Entries carry first-class [LI.LOCK] modules, which are
    substrate-neutral: the lists exist for any memory substrate through
    {!Make}, from one definition. The toplevel values are the simulated
    instantiation (the historical interface every experiment uses);
    {!Native.Registry} is the native one. *)

module LI = Cohort.Lock_intf

type entry = {
  name : string;  (** display name; may differ from the module's. *)
  lock : (module LI.LOCK);
  tweak : LI.config -> LI.config;  (** per-lock config adjustment. *)
}

type abortable_entry = {
  a_name : string;
  a_lock : (module LI.ABORTABLE_LOCK);
  a_tweak : LI.config -> LI.config;
}

val plain : string -> (module LI.LOCK) -> entry
(** An entry with no config tweak. *)

val with_trace : Numa_trace.Sink.t -> entry -> entry
(** Route the entry's lock instances to a trace sink (composed after the
    entry's own tweak), so CLIs can enable tracing without changing any
    experiment signature. *)

val with_trace_abortable : Numa_trace.Sink.t -> abortable_entry -> abortable_entry

val hbo_micro : LI.config -> LI.config
(** HBO backoff parameters tuned for the LBench microbenchmark (the
    paper's "HBO" column). *)

val hbo_app : LI.config -> LI.config
(** HBO backoff parameters tuned for application-length critical
    sections (the paper's "HBO (tuned)" column). *)

(** What a registry instantiation provides. *)
module type S = sig
  val microbench_locks : entry list
  (** The Figure 2-5 line-up, in the paper's legend order, then the
      successors CNA and PTL (11 locks). *)

  val abortable_locks : abortable_entry list
  (** The Figure 6 line-up (4 locks). *)

  val app_locks : entry list
  (** The Table 1/2 line-up (13 locks; pthread first, as the
      normalisation baseline). *)

  val collapse_locks : entry list
  (** The saturation-collapse line-up: plain BO/TKT/MCS (which collapse
      past capacity), their GCR-wrapped counterparts and the C-BO-MCS
      reference (7 locks; see the [collapse] experiment). *)

  val all_locks : entry list
  (** Every entry above, deduplicated by name, then the 11 compositions
      of {!Cohort.Cohort_locks} the paper never names (C-BO-TKT, ...,
      C-CLH-CLH): 31 locks. *)

  val find : string -> entry option
end

module Make (M : Numa_base.Memory_intf.MEMORY) : S
(** Instantiate the whole line-up over a memory substrate. *)

include S
(** The simulated-substrate registry. *)

module Table : module type of Cohort.Cohort_locks.Make (Numasim.Sim_mem)
(** The composition table over the simulated substrate: the instance the
    simulated registry's cohort locks come from, and the one experiments
    use for the compositions no line-up lists. *)
