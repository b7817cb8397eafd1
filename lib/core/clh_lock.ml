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
end
