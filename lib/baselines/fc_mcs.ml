(** FC-MCS: the flat-combining NUMA lock of Dice, Marathe & Shavit
    (SPAA'11) — the strongest prior NUMA-aware lock in the paper's
    evaluation.

    Each cluster has a publication array and a combiner flag. A thread
    posts its request in its slot and tries to become the cluster's
    combiner; the combiner collects all posted requests into an MCS chain
    and splices the chain into the global MCS queue with one swap, then
    waits on its own node like everybody else. Threads whose requests were
    collected spin on their MCS node; release is a plain MCS release on
    the global queue.

    Compared to cohort locks the batches here are {e static}: fixed when
    the combiner scans, so requests arriving a moment later miss the batch
    (the "dynamic growth" advantage of cohorting, section 4.1.2). The
    combiner scan and publication traffic are the memory/complexity
    overheads the paper criticises. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : Cohort.Lock_intf.LOCK =
struct
  module LI = Cohort.Lock_intf
  module I = Cohort.Instr.Make (M)
  module Q = Cohort.Mcs_lock.Make (M)

  (* Request slot states. *)
  let idle = 0
  let posted = 1
  let collected = 2

  type slot = { rstate : int M.cell; node : Q.node }

  type cluster_state = {
    slots : slot array;
    n_slots : int ref;  (* registration counter; mutated pre-run only *)
    combiner : int M.cell;
  }

  type t = {
    clusters : cluster_state array;
    gtail : Q.node option M.cell;
    cfg : LI.config;
  }

  type thread = { l : t; cs : cluster_state; slot : slot; ev : Cohort.Instr.t }

  let name = "FC-MCS"

  let create cfg =
    {
      clusters =
        Array.init cfg.LI.clusters (fun _ ->
            {
              slots =
                (* Publication slots are packed 8 to a cache line, as a
                   real flat-combining array would be, so the combiner's
                   scan touches n/8 lines, not n. *)
                (let current_line = ref (M.line ~name:"fcmcs.slots" ()) in
                 Array.init cfg.LI.max_threads (fun i ->
                     if i mod 8 = 0 && i > 0 then
                       current_line := M.line ~name:"fcmcs.slots" ();
                     { rstate = M.cell !current_line idle; node = Q.make_node () }));
              n_slots = ref 0;
              combiner = M.cell' 0;
            });
      gtail = M.cell' ~name:"fcmcs.gtail" None;
      cfg;
    }

  let register l ~tid ~cluster =
    let cs = l.clusters.(cluster) in
    let i = !(cs.n_slots) in
    if i >= Array.length cs.slots then
      invalid_arg "Fc_mcs.register: more threads than config.max_threads";
    incr cs.n_slots;
    { l; cs; slot = cs.slots.(i); ev = Cohort.Instr.make l.cfg ~tid ~cluster }

  (* Collect every posted request (ours included) into an MCS chain and
     splice it into the global queue. *)
  let combine th =
    let cs = th.cs in
    let chain = ref [] in
    for i = !(cs.n_slots) - 1 downto 0 do
      let s = cs.slots.(i) in
      if M.read s.rstate = posted then begin
        M.write s.node.Q.nstate Q.nbusy;
        M.write s.node.Q.next None;
        M.write s.rstate collected;
        chain := s.node :: !chain
      end
    done;
    match !chain with
    | [] -> ()
    | head :: rest ->
        (* Link head -> ... -> tail. *)
        let tail =
          List.fold_left
            (fun prev n ->
              M.write prev.Q.next (Q.some n);
              n)
            head rest
        in
        (match M.swap th.l.gtail (Q.some tail) with
        | None ->
            (* Queue was empty: the chain head owns the lock. *)
            M.write head.Q.nstate Q.ngranted_local
        | Some gpred -> M.write gpred.Q.next (Q.some head))

  (* How long a poster lets requests gather before combining them itself.
     Combining eagerly fragments batches into chains of one or two;
     waiting costs latency. (This is the same tension as HCLH's merge
     window, which the cohort paper contrasts with cohort locks' free
     dynamic batch growth.) *)
  let gather_window = 2_500

  let acquire th =
    let cs = th.cs in
    if M.read th.l.gtail = None then begin
      (* Low-contention bypass (the optimisation the cohort paper's
         section 4.1.3 refers to): with an empty queue, enqueue directly
         instead of publishing and combining. *)
      match Q.enqueue th.l.gtail th.slot.node with
      | None -> ()
      | Some p ->
          M.write p.Q.next (Q.some th.slot.node);
          ignore
            (M.wait_until th.slot.node.Q.nstate (fun s -> s = Q.ngranted_local))
    end
    else begin
      M.write th.slot.rstate posted;
      let rec wait_turn () =
        match
          M.wait_until_for th.slot.rstate
            (fun v -> v = collected)
            ~timeout:gather_window
        with
        | Some _ -> ()
        | None ->
            if M.cas cs.combiner ~expect:0 ~desire:1 then begin
              combine th;
              M.write cs.combiner 0;
              (* Our own request is always collected by our own combine. *)
              assert (M.read th.slot.rstate = collected)
            end
            else wait_turn ()
      in
      wait_turn ();
      ignore
        (M.wait_until th.slot.node.Q.nstate (fun s -> s = Q.ngranted_local));
      M.write th.slot.rstate idle
    end;
    I.emit th.ev Numa_trace.Event.Acquire_global

  let release th =
    I.emit th.ev Numa_trace.Event.Handoff_global;
    Q.pass_or_close th.l.gtail th.slot.node ~code:Q.ngranted_local
      ~may_close:true
end
