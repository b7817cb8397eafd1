(** A-C-BO-BO: the abortable cohort BO/BO lock (paper section 3.6.1).

    Like C-BO-BO, but timeout-capable. Aborting waiters reset the
    successor-exists flag so the releaser does not hand the local lock to
    a cohort that no longer exists; the releaser double-checks the flag
    after a local handoff and, if it was cleared meanwhile, atomically
    reclaims the local lock state ([release-local] -> [release-global])
    and releases the global lock.

    Two subtleties close the remaining deadlock/safety gaps:

    - The local lock word is a freshly allocated box on every transition
      and all CASes compare the exact box previously read. This makes the
      releaser's reclaim CAS immune to ABA: it can only reclaim the
      {e specific} release-local state it published, never a later one
      whose global ownership belongs to another holder.
    - A waiter may abort after the releaser's double-check passed; the
      last such aborter would strand the global lock. An aborting thread
      that observes the local lock in release-local state therefore
      rescues it: it CASes the word to busy — becoming the cohort-lock
      holder — and releases globally before returning failure. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : Lock_intf.ABORTABLE_LOCK =
struct
  module I = Instr.Make (M)

  (* The lock word: a fresh box per transition (see above). *)
  type lword = { ls : int }

  let free_global = 0
  let busy = 1
  let free_local = 2
  let mk ls = { ls }

  type cluster_state = {
    state : lword M.cell;
    succ_exists : bool M.cell;  (* colocated with [state] *)
    count : int M.cell;
  }

  type t = {
    cfg : Lock_intf.config;
    gstate : int M.cell;  (* global BO lock word *)
    locals : cluster_state array;
  }

  type thread = { l : t; cs : cluster_state; back : Backoff.t; ev : Instr.t }

  let name = "A-C-BO-BO"

  let create cfg =
    {
      cfg;
      gstate = M.cell' ~name:"acbobo.global" free_global;
      locals =
        Array.init cfg.Lock_intf.clusters (fun i ->
            let ln = M.line ~name:(Printf.sprintf "acbobo.local.%d" i) () in
            {
              state = M.cell ln (mk free_global);
              succ_exists = M.cell ln false;
              count = M.cell' 0;
            });
    }

  let register l ~tid ~cluster =
    {
      l;
      cs = l.locals.(cluster);
      back =
        Backoff.make ~min:Lock_intf.bo_min ~max:Lock_intf.bo_max
          ~salt:tid ();
      ev = Instr.make l.cfg ~tid ~cluster;
    }

  (* Release the cohort lock globally: global first, then local, as in
     the non-abortable transformation. *)
  let release_globally th =
    I.emit th.ev Numa_trace.Event.Handoff_global;
    M.write th.cs.count 0;
    M.write th.l.gstate free_global;
    M.write th.cs.state (mk free_global)

  let global_try_acquire th ~deadline =
    let gstate = th.l.gstate in
    let rec loop () =
      let remaining = deadline - M.now () in
      if remaining <= 0 then false
      else
        match
          M.wait_until_for gstate (fun v -> v = free_global) ~timeout:remaining
        with
        | None -> false
        | Some _ ->
            if M.cas gstate ~expect:free_global ~desire:busy then true
            else begin
              M.pause (Backoff.next th.back);
              loop ()
            end
    in
    loop ()

  (* Returns the state the local lock was taken in, or None on timeout.
     On timeout the flag is reset and a stranded release-local state is
     rescued. *)
  let local_try_acquire th ~deadline =
    let cs = th.cs in
    let rec loop () =
      let remaining = deadline - M.now () in
      if remaining <= 0 then abort ()
      else begin
        M.write cs.succ_exists true;
        match
          M.wait_until_for cs.state (fun w -> w.ls <> busy) ~timeout:remaining
        with
        | None -> abort ()
        | Some w ->
            if M.cas cs.state ~expect:w ~desire:(mk busy) then begin
              M.write cs.succ_exists false;
              Backoff.reset th.back;
              Some w.ls
            end
            else begin
              M.pause (Backoff.next th.back);
              loop ()
            end
      end
    and abort () =
      M.write cs.succ_exists false;
      (* Rescue: if the lock sits in release-local with every waiter gone,
         take it (inheriting the global lock) and release globally. *)
      let w = M.read cs.state in
      if w.ls = free_local && M.cas cs.state ~expect:w ~desire:(mk busy) then
        release_globally th;
      None
    in
    loop ()

  let try_acquire th ~patience =
    let deadline = M.now () + patience in
    match local_try_acquire th ~deadline with
    | None ->
        I.emit th.ev Numa_trace.Event.Abort;
        false
    | Some s when s = free_local ->
        (* inherited the global lock *)
        I.emit th.ev Numa_trace.Event.Acquire_local;
        true
    | Some _ ->
        if global_try_acquire th ~deadline then begin
          I.emit th.ev Numa_trace.Event.Acquire_global;
          true
        end
        else begin
          (* Undo: we hold only the local lock and the global lock is not
             ours; publish release-global so the next local acquirer goes
             to the global lock itself. *)
          M.write th.cs.state (mk free_global);
          I.emit th.ev Numa_trace.Event.Abort;
          false
        end

  let release th =
    let cs = th.cs in
    let c = M.read cs.count in
    let pass = c < th.l.cfg.Lock_intf.max_local_handoffs in
    if pass && M.read cs.succ_exists then begin
      M.write cs.count (c + 1);
      let handoff = mk free_local in
      M.write cs.state handoff;
      (* Double-check (section 3.6.1): if the flag was cleared while we
         released, the waiters may all have aborted — reclaim exactly the
         handoff we published and release globally. A failed CAS means a
         waiter took the handoff (or a later transition happened, in which
         case global ownership is no longer ours to release). *)
      if
        (not (M.read cs.succ_exists))
        && M.cas cs.state ~expect:handoff ~desire:(mk free_global)
      then begin
        M.write cs.count 0;
        I.emit th.ev Numa_trace.Event.Handoff_global;
        M.write th.l.gstate free_global
      end
      else
        I.emit th.ev Numa_trace.Event.Handoff_within_cohort
    end
    else begin
      if not pass then
        I.emit th.ev Numa_trace.Event.Starvation_limit_hit;
      release_globally th
    end
end
