(** A-C-BO-CLH: the abortable cohort lock with a global BO lock and
    abortable CLH local locks (paper section 3.6.2).

    The local lock extends A-CLH ({!Aclh_lock}) with cohort states. Each
    queue node carries a single atomically-updated word colocating the
    release state with a successor-aborted flag:

    - a waiter spins on its predecessor's word until it leaves [Busy];
    - an aborting waiter first CASes its predecessor's word from
      [(Busy, _)] to [(Busy, true)] — warning the predecessor — and only
      then makes the predecessor explicit in its own node. If that CAS
      fails because the predecessor just released locally to it, the
      waiter {e must} take the lock (the strengthened cohort-detection
      requirement: a thread to which alone? pointed will not abort);
    - the releaser hands off locally by CASing its own word from
      [(Busy, false)] to [(Release_local, false)]; the CAS and the
      colocation guarantee the successor cannot abort concurrently. Any
      doubt (flag set, CAS failed, handoff budget exhausted, empty
      cohort) falls back to releasing the global lock and publishing
      [Release_global].

    Local handoff is one CAS on a line already held by the local cluster
    — the property that makes A-C-BO-CLH scale better than A-C-BO-BO
    (Figure 6). *)

module Make (M : Numa_base.Memory_intf.MEMORY) : Lock_intf.ABORTABLE_LOCK =
struct
  module I = Instr.Make (M)

  type wstate =
    | Busy
    | Release_local
    | Release_global
    | Aborted_to of anode

  and word = { wst : wstate; wsa : bool }  (* wsa: successor aborted *)

  and anode = { w : word M.cell }

  let make_node st =
    { w = M.cell (M.line ~name:"acboclh.node" ()) { wst = st; wsa = false } }

  type cluster_state = { ltail : anode M.cell; count : int M.cell }

  type t = {
    cfg : Lock_intf.config;
    gstate : int M.cell;
    locals : cluster_state array;
  }

  type thread = {
    l : t;
    cs : cluster_state;
    back : Backoff.t;
    mutable cur : anode;  (* our node while we hold the lock *)
    ev : Instr.t;
  }

  let name = "A-C-BO-CLH"
  let gfree = 0
  let gbusy = 1

  let create cfg =
    {
      cfg;
      gstate = M.cell' ~name:"acboclh.global" gfree;
      locals =
        Array.init cfg.Lock_intf.clusters (fun _ ->
            {
              ltail = M.cell' (make_node Release_global);
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
      cur = make_node Release_global;
      ev = Instr.make l.cfg ~tid ~cluster;
    }

  let global_try_acquire th ~deadline =
    let gstate = th.l.gstate in
    let rec loop () =
      let remaining = deadline - M.now () in
      if remaining <= 0 then false
      else
        match
          M.wait_until_for gstate (fun v -> v = gfree) ~timeout:remaining
        with
        | None -> false
        | Some _ ->
            if M.cas gstate ~expect:gfree ~desire:gbusy then true
            else begin
              M.pause (Backoff.next th.back);
              loop ()
            end
    in
    loop ()

  let try_acquire th ~patience =
    let deadline = M.now () + patience in
    let n = make_node Busy in
    let pred0 = M.swap th.cs.ltail n in
    (* We hold the local lock in global-release state: acquire the global
       BO lock within the remaining patience, or pass release-global on. *)
    let take_global () =
      if global_try_acquire th ~deadline then begin
        th.cur <- n;
        I.emit th.ev Numa_trace.Event.Acquire_global;
        true
      end
      else begin
        M.write n.w { wst = Release_global; wsa = false };
        I.emit th.ev Numa_trace.Event.Abort;
        false
      end
    in
    let take_local () =
      th.cur <- n;
      I.emit th.ev Numa_trace.Event.Acquire_local;
      true
    in
    let rec watch pred =
      let remaining = deadline - M.now () in
      if remaining <= 0 then abort pred
      else
        match
          M.wait_until_for pred.w
            (fun w -> w.wst <> Busy)
            ~timeout:remaining
        with
        | Some { wst = Release_local; _ } -> take_local ()
        | Some { wst = Release_global; _ } -> take_global ()
        | Some { wst = Aborted_to p; _ } -> watch p
        | Some { wst = Busy; _ } -> assert false
        | None -> abort pred
    and abort pred =
      let wv = M.read pred.w in
      match wv.wst with
      | Release_local ->
          (* The handoff CAS beat our abort: we are the viable successor
             and must take the lock. *)
          take_local ()
      | Release_global -> take_global ()
      | Aborted_to p -> abort p
      | Busy ->
          if M.cas pred.w ~expect:wv ~desire:{ wst = Busy; wsa = true } then begin
            (* Predecessor warned; make it explicit for our successor. *)
            M.write n.w { wst = Aborted_to pred; wsa = false };
            I.emit th.ev Numa_trace.Event.Abort;
            false
          end
          else
            (* The word changed under us: re-examine. *)
            abort pred
    in
    watch pred0

  let release th =
    let n = th.cur in
    let cs = th.cs in
    let release_global () =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      M.write cs.count 0;
      M.write th.l.gstate gfree;
      M.write n.w { wst = Release_global; wsa = false }
    in
    let c = M.read cs.count in
    let wv = M.read n.w in
    let has_cohort = M.read cs.ltail != n in
    let pass = c < th.l.cfg.Lock_intf.max_local_handoffs in
    if not pass then
      I.emit th.ev Numa_trace.Event.Starvation_limit_hit;
    if pass && has_cohort && (not wv.wsa) && wv.wst = Busy then begin
      if M.cas n.w ~expect:wv ~desire:{ wst = Release_local; wsa = false }
      then begin
        M.write cs.count (c + 1);
        I.emit th.ev Numa_trace.Event.Handoff_within_cohort
      end
      else
        (* Our successor aborted between the read and the CAS. *)
        release_global ()
    end
    else release_global ()
end
