open Numa_base
module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module R = Lock_registry
module Kv = Apps.Kvstore.Make (Numasim.Sim_mem)
module W = Apps.Kv_workload
module Alloc = Apps.Allocator.Make (Numasim.Sim_mem)

type sweep = {
  threads : int list;
  columns : string list;
  cells : Lbench.result array array;
}

type table = Report.table = {
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
  t_fmt : float -> string;
}

(* Locks size their per-thread state from [max_threads], so an
   oversubscribed sweep (logical threads beyond the machine's contexts)
   must widen it to the largest count in the sweep. For in-capacity
   sweeps the fold changes nothing, keeping historical configs — and
   hence golden results — bit-identical. *)
let cfg_for topology threads =
  {
    LI.default with
    LI.clusters = topology.Topology.clusters;
    max_threads =
      List.fold_left max (Topology.total_threads topology) threads;
  }

(* --- Table 1: memcached-style KV store -------------------------------- *)

(* One KV-store run; returns operations per second.

   Two pieces of workload modelling mirror the paper's setup (section 4.2):
   - the load is generated by a fixed 32-thread memaslap client, so no
     matter how many server threads run, at most ~32 requests are in
     flight — server threads beyond 32 add placement diversity but not
     offered load (which is why the paper's rows go flat above 32);
   - each request does parsing/response work outside the cache lock
     (~2-3 us) and hash/LRU/response-assembly work under it, with sets
     costing more than gets (allocation, chain maintenance) — the reason
     write-heavy mixes stress the lock hardest (Table 1c). *)
let memaslap_clients = 32
let client_rtt = 17_000 (* ns: network round trip + client processing *)
let kv_get_work = 300 (* ns: hash walk / response assembly under the lock *)
let kv_set_work = 550 (* ns: sets also allocate and fix up LRU chains *)

type kv_store = Kv.t

let kv_keys = 16_384

(* A table's cells share one store: [kv_store] builds it once per
   experiment call and [kv_run] resets it before each cell, which leaves
   every cell exactly where a freshly built store would (doc/SIMULATOR.md
   "Lines and cells outlive a run"). *)
let kv_store () =
  let store = Kv.create ~n_buckets:4096 () in
  Kv.populate store ~n_keys:kv_keys;
  store

let kv_run store ~make_workload (module L : LI.LOCK) ~cfg ~topology
    ~n_threads ~duration ~seed =
  let l = L.create cfg in
  Kv.reset store;
  let ops = ref 0 in
  (* Connection queue between client and server fibers: clients bump
     [issued]; servers claim tickets in FIFO order and bump [done] when a
     response is ready. These lines live outside the cache lock, like the
     kernel socket queues they stand in for. *)
  let issued = M.cell' ~name:"kv.issued" 0 in
  let claimed = M.cell' ~name:"kv.claimed" 0 in
  let done_ = M.cell' ~name:"kv.done" 0 in
  let total = n_threads + memaslap_clients in
  ignore
    (E.run ~topology ~n_threads:total ~horizon:duration
       (fun ~tid ~cluster ->
         if tid < n_threads then begin
           (* Server thread. *)
           let th = L.register l ~tid ~cluster in
           let w = make_workload ~tid in
           let rng = Prng.create (seed + tid) in
           let rec serve () =
             if M.now () < duration then begin
               let t = M.fetch_and_add claimed 1 in
               ignore (M.wait_until issued (fun i -> i > t));
               (* Request parsing outside the cache lock. *)
               M.pause (2_000 + Prng.int rng 900);
               L.acquire th;
               (match W.next w with
               | W.Get k ->
                   ignore (Kv.get store ~tid k);
                   M.pause kv_get_work
               | W.Set (k, v) ->
                   Kv.set store ~tid k v;
                   M.pause kv_set_work);
               incr ops;
               L.release th;
               ignore (M.fetch_and_add done_ 1);
               serve ()
             end
           in
           serve ()
         end
         else begin
           (* Client fiber: issue a request, wait for its (FIFO-ordered)
              completion, then spend a network round trip. *)
           let rng = Prng.create (seed + (tid * 31) + 1) in
           let rec client () =
             if M.now () < duration then begin
               let ticket = M.fetch_and_add issued 1 in
               ignore (M.wait_until done_ (fun d -> d > ticket));
               M.pause (client_rtt + Prng.int rng 2_000);
               client ()
             end
           in
           client ()
         end));
  float_of_int !ops /. (float_of_int duration *. 1e-9)

(* --- Table 2: allocator stress (mmicro) -------------------------------- *)

(* One mmicro run; returns malloc-free pairs per millisecond. Each thread
   repeatedly allocates a 64-byte block, initialises its first words, and
   frees it, with a ~2 us delay after each call (calibrated to the paper's
   ~200 pairs/ms single-thread rate). The run ends at [duration] and
   counts the pairs completed before it. *)
let mmicro (module L : LI.LOCK) ~cfg ~topology ~n_threads ~duration ~seed =
  let l = L.create cfg in
  let alloc = Alloc.create () in
  let pairs = ref 0 in
  ignore
    (E.run ~topology ~n_threads ~horizon:duration (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         let rng = Prng.create (seed + (tid * 977) + 3) in
         let delay () = M.pause (1_700 + Prng.int rng 700) in
         let rec loop () =
           if M.now () < duration then begin
             L.acquire th;
             let b = Alloc.malloc alloc ~size:64 in
             L.release th;
             Alloc.write_data b tid;
             delay ();
             L.acquire th;
             Alloc.free alloc b;
             L.release th;
             if M.now () < duration then incr pairs;
             delay ();
             loop ()
           end
         in
         loop ()));
  float_of_int !pairs /. (float_of_int duration /. 1e6)

(* --- Extension: the NUMA-aware reader-writer lock ---------------------- *)

module Rw = (val R.Table.c_rw_wp)
module RwMutex = (val R.Table.get ~global:"BO" ~local:"MCS")

(* Threads share a structure under either a plain cohort mutex or the RW
   cohort lock; one loop for both: a thread's [lock]/[unlock] take
   [write], which the plain mutex ignores. The run ends at [duration]
   and counts the operations completed before it. Returns operations /
   s. *)
let rw_run ~use_rw ~cfg ~topology ~n_threads ~write_ratio ~duration ~seed =
  let ops = ref 0 in
  let shared = M.cell' 0 in
  let register =
    if use_rw then begin
      let l = Rw.create cfg in
      fun ~tid ~cluster ->
        let th = Rw.register l ~tid ~cluster in
        ( (fun write -> if write then Rw.write_lock th else Rw.read_lock th),
          fun write -> if write then Rw.write_unlock th else Rw.read_unlock th )
    end
    else begin
      let l = RwMutex.create cfg in
      fun ~tid ~cluster ->
        let th = RwMutex.register l ~tid ~cluster in
        ((fun _ -> RwMutex.acquire th), fun _ -> RwMutex.release th)
    end
  in
  ignore
    (E.run ~topology ~n_threads ~horizon:duration (fun ~tid ~cluster ->
         let lock, unlock = register ~tid ~cluster in
         let rng = Prng.create (seed + tid) in
         let rec loop () =
           if M.now () < duration then begin
             let write = Prng.chance rng write_ratio in
             lock write;
             if write then M.write shared (M.read shared + 1)
             else ignore (M.read shared);
             M.pause 150;
             unlock write;
             if M.now () < duration then incr ops;
             M.pause (500 + Prng.int rng 500);
             loop ()
           end
         in
         loop ()));
  float_of_int !ops /. (float_of_int duration *. 1e-9)

(* --- Extension: saturation collapse (GCR concurrency restriction) -------- *)

(* The sweeps above stop at the machine's contexts; this experiment goes
   past them, to thousands of logical threads, where spin locks hit
   scalability collapse (Dice & Kogan, arXiv 1905.10818). The simulator
   has no timeslicing, so the workload models the scheduler: a quantum
   expired at a checkpoint costs a descheduling round over the runnable
   (not GCR-parked) threads. doc/SIMULATOR.md "Preemption model" gives
   the two charges and why the runnable count matters. *)

let collapse_quantum = 10_000 (* ns *)
let collapse_cs = 150 (* ns inside the critical section *)
let collapse_noncs = 200 (* ns between sections, + U[0,300) *)

(* The LBench loop with the scheduler model as its hooks: quanta
   staggered by the thread's PRNG (so the first round of deschedules is
   not one synchronized convoy), CPU sharing before the acquire, and the
   park/waiter-preemption check right after the grant. [cfg] gains the
   park observer. *)
let collapse_loop cfg ~topology ~n_threads =
  (* Park observation channel: [woke.(tid)] means tid's current acquire
     slept on the GCR passive list (so its long wait was off-CPU), and
     [parked_now] is the current passive population — what the model
     subtracts from the run queue. *)
  let woke = Array.make n_threads false in
  let parked_now = ref 0 in
  let park_sink =
    Numa_trace.Sink.make (fun ev ->
        match ev.Numa_trace.Event.kind with
        | Numa_trace.Event.Gcr_park -> incr parked_now
        | Numa_trace.Event.Gcr_unpark ->
            woke.(ev.tid) <- true;
            decr parked_now
        | _ -> ())
  in
  let cfg =
    { cfg with LI.trace = Numa_trace.Sink.tee park_sink cfg.LI.trace }
  in
  let contexts = Topology.total_threads topology in
  let oversub = (n_threads + contexts - 1) / contexts in
  (* Descheduled for a round over the runnable population, then a fresh
     quantum. *)
  let deschedule next =
    let runnable = n_threads - !parked_now in
    let r = (((runnable + contexts - 1) / contexts) - 1) * collapse_quantum in
    if r > 0 then M.pause r;
    next := M.now () + collapse_quantum
  in
  let thread ~tid rng =
    let next = ref (Prng.int rng collapse_quantum) in
    {
      Bench_core.before_acquire =
        (fun () -> if oversub > 1 && M.now () >= !next then deschedule next);
      granted =
        (fun ~waited ->
          let parked = woke.(tid) in
          woke.(tid) <- false;
          if parked then
            (* Just dispatched from a wakeup: fresh quantum. *)
            next := M.now () + collapse_quantum
          else if oversub > 1 && waited > collapse_quantum then
            (* Waiter preemption: the spin outlived the quantum, so
               ownership arrived while this thread was descheduled —
               charged while holding. *)
            deschedule next);
    }
  in
  ( {
      Bench_core.salt = 11;
      cs = Pause collapse_cs;
      idle_min = collapse_noncs;
      idle_spread = 300;
      thread;
    },
    cfg )

let collapse_workload (e : R.entry) ~topology ~n_threads =
  collapse_loop (e.tweak (cfg_for topology [ n_threads ])) ~topology ~n_threads

(* --- Points ------------------------------------------------------------- *)

type lock = (module LI.LOCK)

type workload =
  | Lbench of { lock : lock; rollup : bool; profile : bool }
  | Abortable of {
      lock : (module LI.ABORTABLE_LOCK);
      patience : int;
      rollup : bool;
    }
  | Collapse of lock
  | Kv_mix of { lock : lock; store : kv_store Lazy.t; mix : W.mix }
  | Kv_bimodal of { lock : lock; store : kv_store Lazy.t }
  | Mmicro of lock
  | Rw of { use_rw : bool; write_ratio : float }

type point = {
  experiment : string;
  lock : string;
  n_threads : int;
  topology : Topology.t;
  duration : int;
  seed : int;
  cfg : LI.config;
  workload : workload;
}

type row = { entry : Bench_json.entry; result : Lbench.result option }

let run_point p =
  let { lock = name; topology; n_threads; duration; seed; cfg; _ } = p in
  let lbench r =
    {
      entry = Bench_json.entry_of_result ~experiment:p.experiment r;
      result = Some r;
    }
  in
  let value metric v =
    let entry =
      { Bench_json.experiment = p.experiment; lock = name; threads = n_threads;
        metrics = [ (metric, v) ] }
    in
    { entry; result = None }
  in
  let kv store lock make_workload =
    value "throughput"
      (kv_run (Lazy.force store) ~make_workload lock ~cfg ~topology ~n_threads
         ~duration ~seed)
  in
  let keys tid = seed + (tid * 131) + 7 in
  match p.workload with
  | Lbench { lock; rollup; profile } ->
      lbench
        (Lbench.run ~name ~rollup ~profile lock ~topology ~cfg ~n_threads
           ~duration ~seed)
  | Abortable { lock; patience; rollup } ->
      lbench
        (Lbench.run_abortable ~name ~rollup lock ~topology ~cfg ~n_threads
           ~duration ~seed ~patience)
  | Collapse lock ->
      let workload, cfg = collapse_loop cfg ~topology ~n_threads in
      lbench
        (Lbench.run_workload workload ~name lock ~topology ~cfg ~n_threads
           ~duration ~seed)
  | Kv_mix { lock; store; mix } ->
      kv store lock (fun ~tid -> W.make ~seed:(keys tid) ~n_keys:kv_keys ~mix)
  | Kv_bimodal { lock; store } ->
      kv store lock (fun ~tid ->
          W.make_bimodal ~seed:(keys tid) ~n_keys:kv_keys ~period:500
            ~mix_a:W.read_heavy ~mix_b:W.write_heavy)
  | Mmicro lock ->
      value "pairs_per_ms"
        (mmicro lock ~cfg ~topology ~n_threads ~duration ~seed)
  | Rw { use_rw; write_ratio } ->
      value "throughput"
        (rw_run ~use_rw ~cfg ~topology ~n_threads ~write_ratio ~duration ~seed)

let run_points = List.map (fun p -> (p, run_point p))

let lock_points ?cfg ?(by_thread = false) ~experiment ~topology ~threads
    ~duration ~seed locks workload =
  let point (e : R.entry) n_threads =
    let cfg =
      match cfg with
      | Some f -> f e n_threads
      | None -> e.tweak (cfg_for topology [ n_threads ])
    in
    let lock = e.name and workload = workload e in
    { experiment; lock; n_threads; topology; duration; seed; cfg; workload }
  in
  if by_thread then
    List.concat_map (fun n -> List.map (fun e -> point e n) locks) threads
  else List.concat_map (fun e -> List.map (point e) threads) locks

let at rows lock n =
  snd (List.find (fun (p, _) -> p.lock = lock && p.n_threads = n) rows)

let metric name r = List.assoc name r.entry.Bench_json.metrics

let lock_table ~title ?(fmt = Report.fmt_fixed2) ~locks ~threads f rows =
  let row n = (n, Array.of_list (List.map (fun l -> f (at rows l n)) locks)) in
  {
    t_title = title;
    t_xlabel = "threads";
    t_columns = locks;
    t_rows = List.map row threads;
    t_fmt = fmt;
  }

(* --- The sweeps and Table 1 ----------------------------------------------- *)

let names = List.map (fun (e : R.entry) -> e.name)

(* A sweep keeps only its results: each row (its artifact entry) is
   dropped as its point finishes, so no entry outlives the next run. *)
let sweep ~threads locks points =
  let result p = (p, Option.get (run_point p).result) in
  let results = List.map result points in
  let cell name n =
    snd (List.find (fun (p, _) -> p.lock = name && p.n_threads = n) results)
  in
  let col name = Array.of_list (List.map (cell name) threads) in
  let columns = names locks in
  { threads; columns; cells = Array.of_list (List.map col columns) }

let microbench_sweep ?(locks = R.microbench_locks) ?(rollup = false)
    ?(profile = false) ~topology ~threads ~duration ~seed () =
  lock_points ~experiment:"lbench" ~topology ~threads ~duration ~seed locks
    ~cfg:(fun e _ -> e.tweak (cfg_for topology threads))
    (fun e -> Lbench { lock = e.lock; rollup; profile })
  |> sweep ~threads locks

let collapse_sweep ?(locks = R.collapse_locks) ~topology ~threads ~duration
    ~seed () =
  lock_points ~experiment:"collapse" ~topology ~threads ~duration ~seed locks
    (fun e -> Collapse e.lock)
  |> sweep ~threads locks

let collapse_run e ~topology ~n_threads ~duration ~seed =
  (collapse_sweep ~locks:[ e ] ~topology ~threads:[ n_threads ] ~duration ~seed
     ()).cells.(0).(0)

let pthread = Option.get (R.find "pthread")

let kv_points ?(base_threads = 1) ~experiment ~locks ~topology ~threads
    ~duration ~seed workload =
  let grid locks threads =
    lock_points ~by_thread:true ~experiment ~topology ~threads ~duration ~seed
      locks workload
  in
  let cells = grid locks threads in
  let base p = p.lock = "pthread" && p.n_threads = base_threads in
  if List.exists base cells then cells
  else grid [ pthread ] [ base_threads ] @ cells

let kv_table ~title ?(base_threads = 1) ~locks ~threads rows =
  let base = metric "throughput" (at rows "pthread" base_threads) in
  lock_table ~title ~locks ~threads
    (fun r -> metric "throughput" r /. base)
    rows

let table1_title mix =
  Printf.sprintf
    "Table 1: memcached-style KV store, %s (speedup over pthread @ 1 thread)"
    mix.W.label

let table1 ?(locks = R.app_locks) ~topology ~threads ~duration ~seed ~mix () =
  let store = lazy (kv_store ()) in
  kv_points ~experiment:"table1" ~locks ~topology ~threads ~duration ~seed
    (fun e -> Kv_mix { lock = e.lock; store; mix })
  |> run_points
  |> kv_table ~title:(table1_title mix) ~locks:(names locks) ~threads
