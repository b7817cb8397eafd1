(** CLH queue lock (Craig; Landin & Hagersten).

    Threads enqueue by swapping the tail and spin on their {e
    predecessor's} node; on release a thread recycles its predecessor's
    node for its own next acquisition — the classic CLH node-stealing
    discipline. Used standalone as a baseline component and as the
    substrate of the hierarchical HCLH lock. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  type node = { locked : bool M.cell }

  let make_node v = { locked = M.cell (M.line ~name:"clh.node" ()) v }

  module Plain : Lock_intf.LOCK = struct
    type t = { tail : node M.cell; cfg : Lock_intf.config }

    type thread = {
      l : t;
      mutable my : node;
      mutable pred : node;
      ev : Instr.t;
    }

    let name = "CLH"

    let create cfg =
      { tail = M.cell' ~name:"clh.tail" (make_node false); cfg }

    let register l ~tid ~cluster =
      {
        l;
        my = make_node false;
        pred = make_node false;
        ev = Instr.make l.cfg ~tid ~cluster;
      }

    let acquire th =
      let n = th.my in
      M.write n.locked true;
      let p = M.swap th.l.tail n in
      (* Tail swap = queue-join linearisation point (FIFO oracle). *)
      I.emit th.ev Numa_trace.Event.Enqueue;
      th.pred <- p;
      ignore (M.wait_until p.locked (fun v -> not v));
      I.emit th.ev Numa_trace.Event.Acquire_global

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      M.write th.my.locked false;
      (* Steal the predecessor's node: ours is still being watched. *)
      th.my <- th.pred
  end

  (* Cohort adapters. The paper builds its CLH-local lock only in
     abortable form (A-C-BO-CLH); these non-abortable adapters complete
     the composition matrix the transformation promises. *)

  (* 3-state node word for the cohort-local variant. *)
  let sbusy = 0
  let srel_local = 1
  let srel_global = 2

  type cnode = { cstate : int M.cell }

  let make_cnode v = { cstate = M.cell (M.line ~name:"clh.cnode" ()) v }

  module Local : Lock_intf.LOCAL = struct
    type t = { tail : cnode M.cell }

    type thread = { l : t; mutable my : cnode; mutable pred : cnode }

    let create _cfg =
      { tail = M.cell' ~name:"clh.local.tail" (make_cnode srel_global) }

    let register l ~tid:_ ~cluster:_ =
      { l; my = make_cnode sbusy; pred = make_cnode sbusy }

    let acquire th =
      M.write th.my.cstate sbusy;
      let p = M.swap th.l.tail th.my in
      th.pred <- p;
      let s = M.wait_until p.cstate (fun v -> v <> sbusy) in
      if s = srel_local then Lock_intf.Local_release
      else Lock_intf.Global_release

    (* A successor exists exactly when the tail moved past our node; a
       thread that swapped the tail is committed (non-abortable), so
       there are no dangerous false negatives. *)
    let alone th = M.read th.l.tail == th.my

    let release th kind =
      M.write th.my.cstate
        (match kind with
        | Lock_intf.Local_release -> srel_local
        | Lock_intf.Global_release -> srel_global);
      th.my <- th.pred

  end

  module Global : Lock_intf.GLOBAL = struct
    (* Thread-obliviousness: nodes are allocated per acquisition (the GC
       plays the role of the pools in C-MCS-MCS) and the holder's node is
       published in [holder], written and read only under the lock, so
       whichever thread releases can find it. *)
    type t = { tail : node M.cell; holder : node M.cell }

    type thread = { l : t }

    let create _cfg =
      let sentinel = make_node false in
      {
        tail = M.cell' ~name:"clh.global.tail" sentinel;
        holder = M.cell' ~name:"clh.global.holder" sentinel;
      }

    let register l ~tid:_ ~cluster:_ = { l }

    let acquire th =
      let n = make_node true in
      let p = M.swap th.l.tail n in
      ignore (M.wait_until p.locked (fun v -> not v));
      M.write th.l.holder n

    let release th =
      let n = M.read th.l.holder in
      M.write n.locked false
  end

  (* The local lock of A-C-BO-CLH (section 3.6.2): A-CLH ({!Aclh_lock})
     with cohort states. A node's word colocates its release state with
     a successor-aborted flag. An aborting waiter first CASes its
     predecessor's word from [(Busy, _)] to [(Busy, true)]; if that CAS
     loses to a local release, it must take the lock (section 3.6's
     strengthened cohort detection). The releaser passes locally with
     one CAS of its own word from [(Busy, false)] to
     [(Release_local, false)], which a successor's abort cannot race; a
     set flag or a lost CAS falls back to a global release. *)
  module Abortable_local : Lock_intf.ABORTABLE_LOCAL = struct
    type wstate =
      | Busy
      | Release_local
      | Release_global
      | Aborted_to of anode

    and word = { wst : wstate; wsa : bool }  (* wsa: successor aborted *)
    and anode = { w : word M.cell }

    let make_anode st =
      { w = M.cell (M.line ~name:"clh.anode" ()) { wst = st; wsa = false } }

    type t = { tail : anode M.cell }

    type thread = {
      l : t;
      mutable cur : anode;  (* our node from the local grant on *)
    }

    let create _cfg =
      { tail = M.cell' ~name:"clh.alocal.tail" (make_anode Release_global) }

    let register l _back = { l; cur = make_anode Release_global }

    let try_acquire th ~deadline =
      let n = make_anode Busy in
      let pred0 = M.swap th.l.tail n in
      let granted kind =
        th.cur <- n;
        Lock_intf.Granted kind
      in
      let rec watch pred =
        let remaining = deadline - M.now () in
        if remaining <= 0 then abort pred
        else
          match
            M.wait_until_for pred.w (fun w -> w.wst <> Busy) ~timeout:remaining
          with
          | Some { wst = Release_local; _ } -> granted Lock_intf.Local_release
          | Some { wst = Release_global; _ } ->
              granted Lock_intf.Global_release
          | Some { wst = Aborted_to p; _ } -> watch p
          | Some { wst = Busy; _ } -> assert false
          | None -> abort pred
      and abort pred =
        let wv = M.read pred.w in
        match wv.wst with
        | Release_local ->
            (* The handoff CAS beat our abort: we are the viable
               successor and must take the lock. *)
            granted Lock_intf.Local_release
        | Release_global -> granted Lock_intf.Global_release
        | Aborted_to p -> abort p
        | Busy ->
            if M.cas pred.w ~expect:wv ~desire:{ wst = Busy; wsa = true }
            then begin
              (* Predecessor warned; make it explicit for our successor. *)
              M.write n.w { wst = Aborted_to pred; wsa = false };
              Lock_intf.Aborted
            end
            else (* The word changed under us: re-examine. *)
              abort pred
      in
      watch pred0

    let pass th ~may_pass ~commit =
      let n = th.cur in
      let wv = M.read n.w in
      let has_cohort = M.read th.l.tail != n in
      if may_pass () && has_cohort && (not wv.wsa) && wv.wst = Busy then begin
        (* Count before the CAS: once it lands the successor holds the
           lock and may release globally, resetting the count. *)
        commit ();
        if M.cas n.w ~expect:wv ~desire:{ wst = Release_local; wsa = false }
        then Lock_intf.Passed
        else
          (* Our successor aborted between the read and the CAS; the
             global release resets the count. *)
          Lock_intf.Declined
      end
      else Lock_intf.Declined

    let release th = M.write th.cur.w { wst = Release_global; wsa = false }
  end
end
