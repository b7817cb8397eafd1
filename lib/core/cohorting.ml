(** The lock cohorting transformation (paper section 2.1).

    [Make (Name) (M) (G) (L)] turns a thread-oblivious global lock [G]
    and cohort-detecting per-cluster local locks [L] into a NUMA-aware
    lock:

    - {b acquire}: acquire the local lock of the caller's cluster. If it
      arrived in [Local_release] state, the global lock is already owned
      on behalf of this cluster — enter the critical section. Otherwise
      acquire the global lock first.
    - {b release}: if the cohort is non-empty ([not (alone ())]) and the
      may-pass-local predicate allows it, release only the local lock in
      [Local_release] state, passing global ownership within the cluster
      at local-lock cost. Otherwise release the global lock and then the
      local lock in [Global_release] state.

    The may-pass-local predicate is selected by
    [config.handoff_policy]: the paper's consecutive-handoff counter
    (bound 64, section 3.7), a time budget on continuous global-lock
    retention (suggested in section 2.1), their combination, or
    unbounded. *)

module Make
    (Name : sig
      val name : string
    end)
    (M : Numa_base.Memory_intf.MEMORY)
    (G : Lock_intf.GLOBAL)
    (L : Lock_intf.LOCAL) : Lock_intf.LOCK = struct
  module I = Instr.Make (M)

  type t = {
    cfg : Lock_intf.config;
    global : G.t;
    locals : L.t array;
    counts : int M.cell array;
        (* consecutive-local-handoff counters; each is only accessed by
           the current cohort-lock holder, so plain reads/writes suffice. *)
    held_since : int M.cell array;
        (* when this cluster last acquired the global lock; same
           holder-only access discipline as [counts]. *)
  }

  type thread = {
    l : t;
    gt : G.thread;
    lt : L.thread;
    count : int M.cell;
    since : int M.cell;
    ev : Instr.t;
  }

  let name = Name.name

  let create cfg =
    {
      cfg;
      global = G.create cfg;
      locals = Array.init cfg.Lock_intf.clusters (fun _ -> L.create cfg);
      counts =
        Array.init cfg.Lock_intf.clusters (fun i ->
            M.cell' ~name:(Printf.sprintf "cohort.count.%d" i) 0);
      held_since =
        Array.init cfg.Lock_intf.clusters (fun i ->
            M.cell' ~name:(Printf.sprintf "cohort.since.%d" i) 0);
    }

  let register l ~tid ~cluster =
    if cluster < 0 || cluster >= Array.length l.locals then
      invalid_arg "Cohorting.register: cluster out of range";
    {
      l;
      gt = G.register l.global ~tid ~cluster;
      lt = L.register l.locals.(cluster) ~tid ~cluster;
      count = l.counts.(cluster);
      since = l.held_since.(cluster);
      ev = Instr.make l.cfg ~tid ~cluster;
    }

  let acquire th =
    match L.acquire th.lt with
    | Lock_intf.Local_release ->
        I.emit th.ev Numa_trace.Event.Acquire_local
    | Lock_intf.Global_release ->
        G.acquire th.gt;
        (match th.l.cfg.Lock_intf.handoff_policy with
        | Lock_intf.Timed _ | Lock_intf.Counted_or_timed _ ->
            M.write th.since (M.now ())
        | Lock_intf.Counted | Lock_intf.Unbounded -> ());
        I.emit th.ev Numa_trace.Event.Acquire_global

  (* The may-pass-local predicate: may this release stay within the
     cohort, given [c] consecutive local handoffs so far? *)
  let may_pass_local th c =
    let cfg = th.l.cfg in
    match cfg.Lock_intf.handoff_policy with
    | Lock_intf.Counted -> c < cfg.Lock_intf.max_local_handoffs
    | Lock_intf.Unbounded -> true
    | Lock_intf.Timed budget -> M.now () - M.read th.since < budget
    | Lock_intf.Counted_or_timed budget ->
        c < cfg.Lock_intf.max_local_handoffs
        && M.now () - M.read th.since < budget

  let release th =
    let c = M.read th.count in
    let pass = may_pass_local th c in
    if pass && not (L.alone th.lt) then begin
      M.write th.count (c + 1);
      I.emit th.ev Numa_trace.Event.Handoff_within_cohort;
      L.release th.lt Lock_intf.Local_release
    end
    else begin
      if not pass then
        (* The may-pass-local predicate denied a within-cohort handoff:
           the starvation bound (count or time budget) forced this
           global release. *)
        I.emit th.ev Numa_trace.Event.Starvation_limit_hit;
      M.write th.count 0;
      I.emit th.ev Numa_trace.Event.Handoff_global;
      G.release th.gt;
      L.release th.lt Lock_intf.Global_release
    end
end
