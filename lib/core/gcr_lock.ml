(** Generic concurrency restriction (GCR): an admission wrapper that
    turns any {!Lock_intf.LOCK} into a saturation-proof one.

    "Avoiding Scalability Collapse by Restricting Concurrency" (Dice &
    Kogan, arXiv 1905.10818) observes that past saturation, lock
    throughput is destroyed not by the lock but by the scheduler: every
    handoff lands on a thread that has been descheduled, so each critical
    section pays a full scheduling quantum. The cure is generic — keep at
    most [k] threads {e active} (competing for the underlying lock) and
    park the overflow on a {e passive} list, rotating passive waiters in
    periodically so nobody starves.

    The wrapper below is that transformation as a functor over the memory
    substrate and the wrapped lock:

    - the {b gate} is a CAS-guarded counter [active <= k]
      ([config.gcr_max_active]); winners proceed straight to the inner
      lock;
    - losers enqueue on a {b passive FIFO} (a slot ring indexed by
      monotone head/tail counters) and spin-then-park on a per-thread
      park word, with {!Park_lock}'s spin/park/resume cost model;
    - every [config.gcr_rotate_every]-th grant the releaser {b rotates}:
      instead of surrendering its active slot it transfers the slot to
      the oldest passive waiter (and, back in its own acquire path, will
      find the gate full and park itself) — so a passive waiter at queue
      position [p] is promoted after at most [(p+1) * gcr_rotate_every]
      grants, the checkable starvation bound;
    - a releaser that surrenders the {e last} active slot re-checks the
      passive queue and, if it can re-take the gate, promotes a waiter —
      the rescue that closes the enqueue-vs-drain race (parkers run the
      same check after publishing, the standard two-sided protocol, so a
      wakeup is never lost).

    Trace vocabulary (the admission oracle in [lib/check/oracle.ml]
    counts these): [Gcr_admit] after winning the gate, [Gcr_park] after
    publishing a passive slot, [Gcr_unpark] on observing promotion,
    [Gcr_exit] in release before the slot is surrendered or transferred.
    Each admit/unpark is emitted {e after} the slot is held and each exit
    {e before} it is given up, so the event-counted active set never
    exceeds the real one, which never exceeds [k]. *)

module type BUG = sig
  val drop_rescue : bool
  (** [true] builds the seeded mutant ["GCR-<inner>!dropped-unpark"]: a
      releaser surrendering the last active slot skips the passive-queue
      re-check, so a thread that parked while the set drained is never
      woken — a lost wakeup the explorer flags as deadlock. *)
end

module Wrap_gen
    (M : Numa_base.Memory_intf.MEMORY)
    (L : Lock_intf.LOCK)
    (B : BUG) : Lock_intf.LOCK = struct
  module Event = Numa_trace.Event
  module I = Instr.Make (M)
  module P = Park_lock.Make (M)

  type t = {
    inner : L.t;
    active : int M.cell;  (** gate: threads holding an admission slot. *)
    grants : int M.cell;  (** completed releases, drives rotation. *)
    p_head : int M.cell;  (** passive ring: next slot to promote. *)
    p_tail : int M.cell;  (** passive ring: next slot to claim. *)
    slots : int M.cell array;
        (** ring of published waiters, [tid + 1] ([0] = not yet
            published: claiming the index and publishing into it are two
            steps, so a promoter may have to wait out the gap). *)
    parks : int M.cell array;
        (** per-tid park word: [0] armed, [1] promotion granted. *)
    k : int;
    rotate_every : int;
    cfg : Lock_intf.config;
  }

  type thread = { g : t; it : L.thread; ev : Instr.t }

  let name =
    "GCR-" ^ L.name ^ if B.drop_rescue then "!dropped-unpark" else ""

  let create (cfg : Lock_intf.config) =
    let n = cfg.max_threads in
    {
      inner = L.create cfg;
      active = M.cell' ~name:"gcr.active" 0;
      grants = M.cell' ~name:"gcr.grants" 0;
      p_head = M.cell' ~name:"gcr.p_head" 0;
      p_tail = M.cell' ~name:"gcr.p_tail" 0;
      (* n + 1 entries: with at most n threads parked at once the tail
         can never lap an unconsumed head entry. *)
      slots =
        Array.init (n + 1) (fun i ->
            M.cell' ~name:(Printf.sprintf "gcr.slot:%d" i) 0);
      parks =
        Array.init n (fun i ->
            M.cell' ~name:(Printf.sprintf "gcr.park:%d" i) 0);
      k = max 1 cfg.gcr_max_active;
      rotate_every = max 1 cfg.gcr_rotate_every;
      cfg;
    }

  let register g ~tid ~cluster =
    {
      g;
      it = L.register g.inner ~tid ~cluster;
      ev = Instr.make g.cfg ~tid ~cluster;
    }

  (* Promote the oldest passive waiter, transferring the caller's active
     slot to it; [false] iff the passive ring was empty. *)
  let rec promote g =
    let h = M.read g.p_head in
    if h = M.read g.p_tail then false
    else if M.cas g.p_head ~expect:h ~desire:(h + 1) then begin
      let slot = g.slots.(h mod Array.length g.slots) in
      let s = M.wait_until slot (fun v -> v <> 0) in
      M.write slot 0;
      M.write g.parks.(s - 1) 1;
      true
    end
    else promote g

  (* Give up an active slot; the last one out re-checks the passive queue
     (unless we are the seeded mutant). [check_queue] re-takes the gate
     before promoting so the transferred slot is accounted for; losing
     that CAS is fine — the winner is a freshly admitted thread whose own
     release will run the same check. *)
  let rec retire g =
    let prev = M.fetch_and_add g.active (-1) in
    if prev = 1 && not B.drop_rescue then check_queue g

  and check_queue g =
    if
      M.read g.p_head <> M.read g.p_tail
      && M.cas g.active ~expect:0 ~desire:1
    then if not (promote g) then retire g

  let acquire th =
    let g = th.g in
    let emit k = I.emit th.ev k in
    let rec gate () =
      let a = M.read g.active in
      if a < g.k then
        if M.cas g.active ~expect:a ~desire:(a + 1) then emit Event.Gcr_admit
        else gate ()
      else begin
        (* Passive path: arm the park word, claim and publish a ring
           slot, then run the drain rescue before sleeping. *)
        let park = g.parks.(th.ev.tid) in
        M.write park 0;
        let t = M.fetch_and_add g.p_tail 1 in
        M.write g.slots.(t mod Array.length g.slots) (th.ev.tid + 1);
        emit Event.Gcr_park;
        check_queue g;
        ignore (P.spin_then_park park (fun v -> v = 1));
        emit Event.Gcr_unpark
      end
    in
    gate ();
    L.acquire th.it

  let release th =
    let g = th.g in
    L.release th.it;
    I.emit th.ev Event.Gcr_exit;
    let grant = M.fetch_and_add g.grants 1 in
    if (grant + 1) mod g.rotate_every = 0 then begin
      if not (promote g) then retire g
    end
    else retire g
end

module Wrap (M : Numa_base.Memory_intf.MEMORY) (L : Lock_intf.LOCK) :
  Lock_intf.LOCK =
  Wrap_gen (M) (L) (struct let drop_rescue = false end)
