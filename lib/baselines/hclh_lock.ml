(** HCLH: the hierarchical CLH queue lock of Luchangco, Nussbaum & Shavit
    (Euro-Par'06).

    Requests gather in a per-cluster CLH queue; the thread at the head of
    a local queue is the cluster {e master}: it closes the local queue
    (swapping its tail to empty) and splices the whole batch into the
    global CLH queue with a single swap of the global tail. Batch members
    hand the lock CLH-style to their local successor; the batch tail's
    release is observed by the next batch's master.

    Structural simplification vs. the published algorithm: we close the
    local queue with a tail swap instead of flagging the spliced tail
    ([tail_when_spliced]), which removes the flag/state bookkeeping while
    preserving what the paper's evaluation exercises — per-cluster
    batching, the SWAP contention bottleneck on the local tail (every
    enqueue hits the same line), and short batches from a master that
    merges promptly. These are exactly the drawbacks the cohorting paper
    attributes HCLH's mid-pack performance to (section 1, section 4.1.2);
    EXPERIMENTS.md "Which HCLH" measures this lock against the published
    protocol. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : Cohort.Lock_intf.LOCK =
struct
  module LI = Cohort.Lock_intf
  module I = Cohort.Instr.Make (M)

  type node = { granted : bool M.cell }

  let make_node v = { granted = M.cell (M.line ~name:"hclh.node" ()) v }

  type t = {
    ltails : node option M.cell array;  (* one local CLH tail per cluster *)
    lmeta : int M.cell array;
        (* per-cluster queue metadata (phase/cluster tags in the published
           algorithm); every enqueue reads and updates it, the shared-
           metadata traffic the cohorting paper blames for HCLH's high
           miss rate (section 4.1.2) *)
    gtail : node M.cell;  (* global CLH tail; sentinel is pre-granted *)
    cfg : LI.config;
  }

  type thread = { l : t; ev : Cohort.Instr.t; mutable my : node }

  let name = "HCLH"

  let create cfg =
    {
      ltails =
        Array.init cfg.LI.clusters (fun i ->
            M.cell' ~name:(Printf.sprintf "hclh.ltail.%d" i) None);
      lmeta =
        Array.init cfg.LI.clusters (fun i ->
            M.cell' ~name:(Printf.sprintf "hclh.lmeta.%d" i) 0);
      gtail = M.cell' ~name:"hclh.gtail" (make_node true);
      cfg;
    }

  let register l ~tid ~cluster =
    { l; ev = Cohort.Instr.make l.cfg ~tid ~cluster; my = make_node false }

  let acquire th =
    let n = make_node false in
    th.my <- n;
    let ltail = th.l.ltails.(th.ev.cluster) in
    (* Tag the node with the queue phase/cluster id: shared metadata every
       enqueue reads and writes in the published algorithm. *)
    let meta = th.l.lmeta.(th.ev.cluster) in
    let phase = M.read meta in
    M.write meta (phase + 1);
    match M.swap ltail (Some n) with
    | Some p ->
        (* Batch member: our predecessor is in the same (eventual) batch;
           its release grants us the lock. *)
        ignore (M.wait_until p.granted (fun g -> g));
        I.emit th.ev Numa_trace.Event.Acquire_local
    | None ->
        (* Cluster master: close the local queue, splice the batch into
           the global queue, and wait on the global predecessor. As the
           cohorting paper notes (section 1), the master must "either wait
           for a long period or globally merge an unacceptably short local
           queue"; merging promptly is what the measured implementations
           do, and short batches are why HCLH trails FC-MCS. *)
        let batch_tail =
          match M.swap ltail None with
          | Some t -> t
          | None -> assert false (* at least our own node is enqueued *)
        in
        let gpred = M.swap th.l.gtail batch_tail in
        ignore (M.wait_until gpred.granted (fun g -> g));
        I.emit th.ev Numa_trace.Event.Acquire_global

  let release th =
    I.emit th.ev Numa_trace.Event.Handoff_global;
    M.write th.my.granted true
end
