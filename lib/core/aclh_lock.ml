(** Abortable CLH lock (Scott, PODC 2002), the paper's A-CLH baseline
    (Figure 6) and the basis of the A-C-BO-CLH local lock.

    A waiting thread spins on its predecessor's node. To abort, it makes
    its predecessor explicit in its own node ([Aborted_to]); the
    successor notices and re-targets its spin at the aborted thread's
    predecessor. Nodes are allocated per acquisition and reclaimed by the
    garbage collector once unlinked (the role played by explicit node
    pools in the C original). *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  type state =
    | Waiting  (** the owner of this node has not released. *)
    | Granted  (** the owner released: its successor holds the lock. *)
    | Aborted_to of node  (** the owner aborted; spin on this node instead. *)

  and node = { ast : state M.cell }

  let make_node v = { ast = M.cell (M.line ~name:"aclh.node" ()) v }

  module Abortable : Lock_intf.ABORTABLE_LOCK = struct
    type t = { tail : node M.cell; cfg : Lock_intf.config }

    type thread = { l : t; mutable cur : node; ev : Instr.t }

    let name = "A-CLH"

    let create cfg =
      { tail = M.cell' ~name:"aclh.tail" (make_node Granted); cfg }

    let register l ~tid ~cluster =
      { l; cur = make_node Granted; ev = Instr.make l.cfg ~tid ~cluster }

    let try_acquire th ~patience =
      let deadline = M.now () + patience in
      let n = make_node Waiting in
      let pred0 = M.swap th.l.tail n in
      let rec watch pred =
        let remaining = deadline - M.now () in
        if remaining <= 0 then abort pred
        else
          match
            M.wait_until_for pred.ast
              (fun s -> s <> Waiting)
              ~timeout:remaining
          with
          | Some Granted ->
              th.cur <- n;
              I.emit th.ev Numa_trace.Event.Acquire_global;
              true
          | Some (Aborted_to p) -> watch p
          | Some Waiting -> assert false
          | None -> abort pred
      and abort pred =
        (* Last-chance check: the predecessor may have released or aborted
           between our timeout and now. *)
        match M.read pred.ast with
        | Granted ->
            th.cur <- n;
            I.emit th.ev Numa_trace.Event.Acquire_global;
            true
        | Aborted_to p -> abort p
        | Waiting ->
            (* Make the predecessor explicit so our successor re-targets;
               the grant, when it comes, persists on [pred] and will be
               claimed by whoever unwinds to it. *)
            M.write n.ast (Aborted_to pred);
            I.emit th.ev Numa_trace.Event.Abort;
            false
      in
      watch pred0

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      M.write th.cur.ast Granted
  end
end
