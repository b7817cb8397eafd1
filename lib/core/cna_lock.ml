(** Compact NUMA-aware lock (CNA; Dice & Kogan, arXiv 1810.05600) — the
    cohorting paper's single-word successor.

    CNA is an MCS lock whose releaser reorders the waiter queue by
    socket instead of layering a global lock over per-cluster locks: on
    release it scans the main queue for the first waiter on its own
    socket, moves the skipped (remote) prefix onto a secondary queue,
    and hands the lock to that local waiter. The secondary queue travels
    with the lock — its head is passed inside the grant word — and is
    spliced back in front of the main queue when no local waiter remains
    or the fairness bound trips. The entire lock is one word (the MCS
    tail): cohort detection, the local queue and the global queue are
    all encoded in the waiter nodes themselves.

    Differences from the C version, forced by the substrates:
    - The C code packs the socket id into spare bits of the spin word.
      Here the grant word is a variant ([grant]) and the socket lives in
      a typed cell on the node's own line — same coherence behaviour
      (the releaser's scan reads the waiter's line remotely), no pointer
      packing, works on both [Sim_mem] and [Nat_mem].
    - The C code flushes the secondary queue with a cheap PRNG
      (p ~ 1/256). Simulation determinism is load-bearing here, so the
      flush is counted: after [max_local_handoffs] consecutive local
      handoffs the releaser hands off globally, which also matches the
      cohort locks' starvation bound and keeps the handoff oracle
      applicable.

    Fairness: CNA is FIFO *within* a socket (the prefix move preserves
    enqueue order, and the secondary queue is spliced back in front of
    strictly-later arrivals) but deliberately unfair across sockets
    inside a batch — the same trade every cohort lock in this repo
    makes. The checker scopes its FIFO oracle accordingly
    (fifo_intra). *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  type node = {
    next : node option M.cell;
    spin : grant M.cell;
    socket : int M.cell;
        (* the registering thread's cluster; read remotely by releasers
           scanning for a local successor. *)
    sec_tail : node option M.cell;
        (* tail of the secondary queue, valid on its head node only. *)
    mutable some_self : node option;
        (* the unique [Some] box for this node: tail CASes compare
           physically (see mcs_lock.ml). *)
  }

  and grant =
    | Waiting
    | Granted  (** global handoff (or flush): no secondary queue. *)
    | Granted_local  (** same-socket handoff, empty secondary queue. *)
    | Sec of node  (** same-socket handoff; the secondary queue's head. *)

  let make_node ~cluster =
    let ln = M.line ~name:"cna.node" () in
    let n =
      {
        next = M.cell ln None;
        spin = M.cell ln Waiting;
        socket = M.cell ln cluster;
        sec_tail = M.cell ln None;
        some_self = None;
      }
    in
    n.some_self <- Some n;
    n

  let some n =
    match n.some_self with Some _ as s -> s | None -> assert false

  let sec_tail_of h =
    match M.read h.sec_tail with Some t -> t | None -> assert false

  let wait_next n =
    match M.wait_until n.next Option.is_some with
    | Some s -> s
    | None -> assert false

  (* Find the first waiter on socket [my] in the main queue starting at
     the releaser's direct successor [first]. If it is not [first]
     itself, the skipped remote prefix [first..pred] is detached and
     appended to the secondary queue [sec] (allocation-order append:
     both queues stay enqueue-ordered). Returns the local successor and
     the possibly-extended secondary queue; [None] means no local waiter
     is linked in yet (latecomers half-way through their enqueue are
     missed, as in the C version — an allowed false negative). *)
  let find_successor ~my ~sec first =
    if M.read first.socket = my then Some (first, sec)
    else
      let rec scan pred =
        match M.read pred.next with
        | None -> None
        | Some cur ->
            if M.read cur.socket = my then Some (pred, cur) else scan cur
      in
      match scan first with
      | None -> None
      | Some (pred, m) ->
          M.write pred.next None;
          let h =
            match sec with
            | Some h ->
                let t = sec_tail_of h in
                M.write t.next (some first);
                M.write h.sec_tail (some pred);
                h
            | None ->
                M.write first.sec_tail (some pred);
                first
          in
          Some (m, Some h)

  module Plain : Lock_intf.LOCK = struct
    type t = {
      tail : node option M.cell;
      hand : int M.cell;
          (* consecutive local handoffs of the current batch; read and
             written only by the holder, like the cohort locks'
             per-cluster counts. *)
      cfg : Lock_intf.config;
    }

    type thread = {
      l : t;
      node : node;
      ev : Instr.t;
      mutable sec : node option;
          (* secondary-queue head while holding; received via the grant
             word, handed on with the lock. *)
    }

    let name = "CNA"

    let create cfg =
      {
        tail = M.cell' ~name:"cna.tail" None;
        hand = M.cell' ~name:"cna.batch" 0;
        cfg;
      }

    let register l ~tid ~cluster =
      {
        l;
        node = make_node ~cluster;
        ev = Instr.make l.cfg ~tid ~cluster;
        sec = None;
      }

    let acquire th =
      let n = th.node in
      M.write n.spin Waiting;
      M.write n.next None;
      let p = M.swap th.l.tail (some n) in
      (* Tail swap = queue-join linearisation point (intra-socket FIFO
         oracle). *)
      I.emit th.ev Numa_trace.Event.Enqueue;
      match p with
      | None ->
          th.sec <- None;
          I.emit th.ev Numa_trace.Event.Acquire_global
      | Some p -> (
          M.write p.next (some n);
          let g =
            M.wait_until n.spin (function Waiting -> false | _ -> true)
          in
          match g with
          | Granted ->
              th.sec <- None;
              I.emit th.ev Numa_trace.Event.Acquire_global
          | Granted_local ->
              th.sec <- None;
              I.emit th.ev Numa_trace.Event.Acquire_local
          | Sec h ->
              th.sec <- Some h;
              I.emit th.ev Numa_trace.Event.Acquire_local
          | Waiting -> assert false)

    let release th =
      let l = th.l and n = th.node in
      let sec = th.sec in
      th.sec <- None;
      match M.read n.next with
      | None -> (
          (* No linked successor: close the queue, or wait out a
             half-finished enqueue. With a secondary queue pending, the
             queue "closes" onto the secondary chain instead: its tail
             becomes the lock tail and its head gets the lock. *)
          I.emit th.ev Numa_trace.Event.Handoff_global;
          M.write l.hand 0;
          match sec with
          | None ->
              if M.cas l.tail ~expect:(some n) ~desire:None then ()
              else M.write (wait_next n).spin Granted
          | Some h ->
              let t = sec_tail_of h in
              if M.cas l.tail ~expect:(some n) ~desire:(some t) then
                M.write h.spin Granted
              else begin
                let s = wait_next n in
                M.write t.next (some s);
                M.write h.spin Granted
              end)
      | Some s -> (
          let hand = M.read l.hand in
          let local =
            if hand >= l.cfg.Lock_intf.max_local_handoffs then None
            else find_successor ~my:th.ev.cluster ~sec s
          in
          match local with
          | Some (m, sec') ->
              M.write l.hand (hand + 1);
              I.emit th.ev Numa_trace.Event.Handoff_within_cohort;
              M.write m.spin
                (match sec' with Some h -> Sec h | None -> Granted_local)
          | None -> (
              (* Flush: the fairness bound tripped or no local waiter is
                 linked. Earlier (remote) arrivals parked on the
                 secondary queue go back in front of the main queue,
                 preserving per-socket enqueue order. *)
              M.write l.hand 0;
              I.emit th.ev Numa_trace.Event.Handoff_global;
              match sec with
              | None -> M.write s.spin Granted
              | Some h ->
                  let t = sec_tail_of h in
                  M.write t.next (some s);
                  M.write h.spin Granted))
  end
end
