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

    [Abortable (Name) (M) (L)] is the same transformation with timeouts
    (section 3.6), over a global BO lock and abortable local locks [L].

    The may-pass-local predicate is selected by
    [config.handoff_policy]: the paper's consecutive-handoff counter
    (bound 64, section 3.7), a time budget on continuous global-lock
    retention (suggested in section 2.1), their combination, or
    unbounded. *)

(* What both transformations keep per cluster, and the may-pass-local
   predicate over it. Only the current cohort-lock holder touches these
   cells, so plain reads and writes suffice. *)
module Cluster (M : Numa_base.Memory_intf.MEMORY) = struct
  type t = {
    count : int M.cell;  (* consecutive local handoffs *)
    since : int M.cell;
        (* when this cluster last acquired the global lock; written only
           under a timed policy *)
  }

  let create (cfg : Lock_intf.config) =
    Array.init cfg.Lock_intf.clusters (fun i ->
        {
          count = M.cell' ~name:(Printf.sprintf "cohort.count.%d" i) 0;
          since = M.cell' ~name:(Printf.sprintf "cohort.since.%d" i) 0;
        })

  let check clusters cluster =
    if cluster < 0 || cluster >= Array.length clusters then
      invalid_arg "Cohorting.register: cluster out of range"

  (* The cluster just acquired the global lock. *)
  let stamp (cfg : Lock_intf.config) k =
    match cfg.Lock_intf.handoff_policy with
    | Lock_intf.Timed _ | Lock_intf.Counted_or_timed _ ->
        M.write k.since (M.now ())
    | Lock_intf.Counted | Lock_intf.Unbounded -> ()

  (* May this release stay within the cohort, given [c] consecutive
     local handoffs so far? *)
  let may_pass_local (cfg : Lock_intf.config) k c =
    match cfg.Lock_intf.handoff_policy with
    | Lock_intf.Counted -> c < cfg.Lock_intf.max_local_handoffs
    | Lock_intf.Unbounded -> true
    | Lock_intf.Timed budget -> M.now () - M.read k.since < budget
    | Lock_intf.Counted_or_timed budget ->
        c < cfg.Lock_intf.max_local_handoffs
        && M.now () - M.read k.since < budget
end

module Make
    (Name : sig
      val name : string
    end)
    (M : Numa_base.Memory_intf.MEMORY)
    (G : Lock_intf.GLOBAL)
    (L : Lock_intf.LOCAL) : Lock_intf.LOCK = struct
  module I = Instr.Make (M)
  module C = Cluster (M)

  type t = {
    cfg : Lock_intf.config;
    global : G.t;
    locals : L.t array;
    clusters : C.t array;
  }

  type thread = {
    l : t;
    gt : G.thread;
    lt : L.thread;
    k : C.t;
    ev : Instr.t;
  }

  let name = Name.name

  let create cfg =
    {
      cfg;
      global = G.create cfg;
      locals = Array.init cfg.Lock_intf.clusters (fun _ -> L.create cfg);
      clusters = C.create cfg;
    }

  let register l ~tid ~cluster =
    C.check l.clusters cluster;
    {
      l;
      gt = G.register l.global ~tid ~cluster;
      lt = L.register l.locals.(cluster) ~tid ~cluster;
      k = l.clusters.(cluster);
      ev = Instr.make l.cfg ~tid ~cluster;
    }

  let acquire th =
    match L.acquire th.lt with
    | Lock_intf.Local_release ->
        I.emit th.ev Numa_trace.Event.Acquire_local
    | Lock_intf.Global_release ->
        G.acquire th.gt;
        C.stamp th.l.cfg th.k;
        I.emit th.ev Numa_trace.Event.Acquire_global

  let release th =
    let c = M.read th.k.count in
    let pass = C.may_pass_local th.l.cfg th.k c in
    if pass && not (L.alone th.lt) then begin
      M.write th.k.count (c + 1);
      I.emit th.ev Numa_trace.Event.Handoff_within_cohort;
      L.release th.lt Lock_intf.Local_release
    end
    else begin
      if not pass then
        (* The may-pass-local predicate denied a within-cohort handoff:
           the starvation bound (count or time budget) forced this
           global release. *)
        I.emit th.ev Numa_trace.Event.Starvation_limit_hit;
      M.write th.k.count 0;
      I.emit th.ev Numa_trace.Event.Handoff_global;
      G.release th.gt;
      L.release th.lt Lock_intf.Global_release
    end
end

module Abortable
    (Name : sig
      val name : string
    end)
    (M : Numa_base.Memory_intf.MEMORY)
    (L : Lock_intf.ABORTABLE_LOCAL) : Lock_intf.ABORTABLE_LOCK = struct
  module I = Instr.Make (M)
  module C = Cluster (M)

  (* The global BO lock word. *)
  let free = 0
  let busy = 1

  type t = {
    cfg : Lock_intf.config;
    global : int M.cell;
    locals : L.t array;
    clusters : C.t array;
  }

  type thread = {
    l : t;
    lt : L.thread;
    k : C.t;
    back : Backoff.t;  (* one sequence for the local and the global lock *)
    ev : Instr.t;
  }

  let name = Name.name

  let create cfg =
    {
      cfg;
      global = M.cell' ~name:"cohort.global" free;
      locals = Array.init cfg.Lock_intf.clusters (fun _ -> L.create cfg);
      clusters = C.create cfg;
    }

  let register l ~tid ~cluster =
    C.check l.clusters cluster;
    let back =
      Backoff.make ~min:Lock_intf.bo_min ~max:Lock_intf.bo_max ~salt:tid ()
    in
    {
      l;
      lt = L.register l.locals.(cluster) back;
      k = l.clusters.(cluster);
      back;
      ev = Instr.make l.cfg ~tid ~cluster;
    }

  (* The global BO lock by [deadline], backing off after a lost CAS. *)
  let rec global_try_acquire th ~deadline =
    let remaining = deadline - M.now () in
    remaining > 0
    &&
    match
      M.wait_until_for th.l.global (fun v -> v = free) ~timeout:remaining
    with
    | None -> false
    | Some _ ->
        M.cas th.l.global ~expect:free ~desire:busy
        || begin
             M.pause (Backoff.next th.back);
             global_try_acquire th ~deadline
           end

  (* Global first, then local, as in the non-abortable transformation. *)
  let release_globally th =
    I.emit th.ev Numa_trace.Event.Handoff_global;
    M.write th.k.count 0;
    M.write th.l.global free;
    L.release th.lt

  let try_acquire th ~patience =
    let deadline = M.now () + patience in
    match L.try_acquire th.lt ~deadline with
    | Lock_intf.Granted Lock_intf.Local_release ->
        (* inherited the global lock *)
        I.emit th.ev Numa_trace.Event.Acquire_local;
        true
    | Lock_intf.Granted Lock_intf.Global_release ->
        if global_try_acquire th ~deadline then begin
          C.stamp th.l.cfg th.k;
          I.emit th.ev Numa_trace.Event.Acquire_global;
          true
        end
        else begin
          (* Undo: the local lock is ours but the global lock is not, so
             the next local acquirer must go to the global lock itself. *)
          L.release th.lt;
          I.emit th.ev Numa_trace.Event.Abort;
          false
        end
    | Lock_intf.Aborted ->
        I.emit th.ev Numa_trace.Event.Abort;
        false
    | Lock_intf.Rescued ->
        release_globally th;
        I.emit th.ev Numa_trace.Event.Abort;
        false

  let release th =
    let c = M.read th.k.count in
    let may_pass () =
      let pass = C.may_pass_local th.l.cfg th.k c in
      if not pass then I.emit th.ev Numa_trace.Event.Starvation_limit_hit;
      pass
    in
    match
      L.pass th.lt ~may_pass ~commit:(fun () -> M.write th.k.count (c + 1))
    with
    | Lock_intf.Passed -> I.emit th.ev Numa_trace.Event.Handoff_within_cohort
    | Lock_intf.Reclaimed ->
        M.write th.k.count 0;
        I.emit th.ev Numa_trace.Event.Handoff_global;
        M.write th.l.global free
    | Lock_intf.Declined -> release_globally th
end
