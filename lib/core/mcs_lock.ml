(** MCS queue lock (Mellor-Crummey & Scott) and its cohort adapters
    (paper sections 3.3–3.4).

    Threads enqueue a per-thread record by swapping the lock's tail
    pointer and spin locally on their own record's state — MCS's local
    spinning property, which the cohort construction preserves.

    - {!Make.Plain}: the classic lock.
    - {!Make.Local}: the cohort-detecting variant. [alone?] is a non-null
      successor pointer check; the state field is extended to
      busy / release-local / release-global.
    - {!Make.Global}: the thread-oblivious variant used by C-MCS-MCS.
      Because the releasing thread may differ from the enqueuing thread,
      queue nodes circulate through per-thread pools (section 3.4): the
      acquirer takes a free node from its pool, and whichever thread
      releases the global lock returns that node to its owner's pool. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  (* Node states. *)
  let nbusy = 0
  let ngranted_local = 1 (* doubles as "granted" for the plain lock *)
  let ngranted_global = 2

  type node = {
    next : node option M.cell;
    nstate : int M.cell;
    nfree : bool M.cell;  (* pool membership flag, used by Global *)
    mutable some_self : node option;
        (* the unique [Some] box for this node: CAS on the tail compares
           physically, so the value swapped in and the value expected by
           the releasing CAS must be the same allocation. *)
  }

  let make_node () =
    let ln = M.line ~name:"mcs.node" () in
    let n =
      {
        next = M.cell ln None;
        nstate = M.cell ln nbusy;
        nfree = M.cell ln true;
        some_self = None;
      }
    in
    n.some_self <- Some n;
    n

  let some n =
    match n.some_self with Some _ as s -> s | None -> assert false

  (* Enqueue [n] on [tail]; returns the predecessor, if any. *)
  let enqueue tail n =
    M.write n.nstate nbusy;
    M.write n.next None;
    M.swap tail (some n)

  (* Hand the lock to the successor of [n] with state [code]; if there is
     none, try to close the queue, waiting out a half-finished enqueue. *)
  let pass_or_close tail n ~code ~may_close =
    match M.read n.next with
    | Some s -> M.write s.nstate code
    | None ->
        if may_close && M.cas tail ~expect:(some n) ~desire:None then ()
        else begin
          let s =
            match M.wait_until n.next Option.is_some with
            | Some s -> s
            | None -> assert false
          in
          M.write s.nstate code
        end

  module Plain : Lock_intf.LOCK = struct
    type t = { tail : node option M.cell; cfg : Lock_intf.config }

    type thread = { l : t; node : node; ev : Instr.t }

    let name = "MCS"
    let create cfg = { tail = M.cell' ~name:"mcs.tail" None; cfg }

    let register l ~tid ~cluster =
      { l; node = make_node (); ev = Instr.make l.cfg ~tid ~cluster }

    let acquire th =
      let n = th.node in
      let p = enqueue th.l.tail n in
      (* Tail swap = queue-join linearisation point (FIFO oracle). *)
      I.emit th.ev Numa_trace.Event.Enqueue;
      (match p with
      | None -> ()
      | Some p ->
          M.write p.next (some n);
          ignore (M.wait_until n.nstate (fun s -> s = ngranted_local)));
      I.emit th.ev Numa_trace.Event.Acquire_global

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      pass_or_close th.l.tail th.node ~code:ngranted_local ~may_close:true
  end

  module Local : Lock_intf.LOCAL = struct
    type t = { tail : node option M.cell }
    type thread = { l : t; node : node }

    let create _cfg = { tail = M.cell' ~name:"mcs.local.tail" None }
    let register l ~tid:_ ~cluster:_ = { l; node = make_node () }

    let acquire th =
      let n = th.node in
      match enqueue th.l.tail n with
      | None ->
          (* Empty queue: we are first, so the global lock is not held on
             behalf of this cluster. *)
          Lock_intf.Global_release
      | Some p ->
          M.write p.next (some n);
          let s = M.wait_until n.nstate (fun s -> s <> nbusy) in
          if s = ngranted_local then Lock_intf.Local_release
          else Lock_intf.Global_release

    (* Non-null successor pointer. A successor that has swapped the tail
       but not yet linked is missed — an allowed false positive. *)
    let alone th = M.read th.node.next = None

    let release th kind =
      let code, may_close =
        match kind with
        | Lock_intf.Local_release -> (ngranted_local, false)
        | Lock_intf.Global_release -> (ngranted_global, true)
      in
      pass_or_close th.l.tail th.node ~code ~may_close
  end

  module Global : Lock_intf.GLOBAL = struct
    (* [holder] records which node currently owns the lock so that a
       different thread can release it and return the node to its owner's
       pool. It is only written/read under the lock. *)
    type t = { tail : node option M.cell; holder : node option M.cell }
    type thread = { l : t; pool : node array }

    let pool_size = 4

    let create _cfg =
      {
        tail = M.cell' ~name:"mcs.global.tail" None;
        holder = M.cell' ~name:"mcs.global.holder" None;
      }

    let register l ~tid:_ ~cluster:_ =
      { l; pool = Array.init pool_size (fun _ -> make_node ()) }

    let take_from_pool th =
      let rec scan i =
        if i >= Array.length th.pool then
          failwith "Mcs_lock.Global: thread node pool exhausted"
        else
          let n = th.pool.(i) in
          if M.read n.nfree then begin
            M.write n.nfree false;
            n
          end
          else scan (i + 1)
      in
      scan 0

    let acquire th =
      let n = take_from_pool th in
      (match enqueue th.l.tail n with
      | None -> ()
      | Some p ->
          M.write p.next (some n);
          ignore (M.wait_until n.nstate (fun s -> s = ngranted_local)));
      M.write th.l.holder (some n)

    let release th =
      let n =
        match M.read th.l.holder with Some n -> n | None -> assert false
      in
      pass_or_close th.l.tail n ~code:ngranted_local ~may_close:true;
      (* Return the node to its owning thread's pool. *)
      M.write n.nfree true
  end
end
