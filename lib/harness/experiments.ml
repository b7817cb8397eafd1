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

(* The (lock x thread count) grid every sweep fills: [run lock n] is one
   cell; cells run lock by lock, thread counts in order. *)
let grid ~threads ~name locks run =
  let row lock = Array.of_list (List.map (run lock) threads) in
  {
    threads;
    columns = List.map name locks;
    cells = Array.of_list (List.map row locks);
  }

let microbench_sweep ?(locks = R.microbench_locks) ?(rollup = false)
    ?(profile = false) ~topology ~threads ~duration ~seed () =
  let cfg = cfg_for topology threads in
  grid ~threads ~name:(fun (e : R.entry) -> e.name) locks (fun e ->
      let cfg = e.tweak cfg in
      fun n ->
        Lbench.run ~name:e.name ~rollup ~profile e.lock ~topology ~cfg
          ~n_threads:n ~duration ~seed)

let rows_of sweep f =
  List.mapi
    (fun row n ->
      (n, Array.map (fun col -> f col.(row)) sweep.cells))
    sweep.threads

let throughput_rows s = rows_of s (fun r -> r.Lbench.throughput)

let series ~title ~fmt f s =
  {
    t_title = title;
    t_xlabel = "threads";
    t_columns = s.columns;
    t_rows = rows_of s f;
    t_fmt = fmt;
  }

(* Two-decimal cells [f lock n], a row per thread count [n] (computed in
   order), a column per lock. *)
let lock_table ~title locks threads f =
  {
    t_title = title;
    t_xlabel = "threads";
    t_columns = List.map (fun (e : R.entry) -> e.name) locks;
    t_rows =
      List.map
        (fun n -> (n, Array.of_list (List.map (fun e -> f e n) locks)))
        threads;
    t_fmt = Report.fmt_fixed2;
  }

let low_contention s =
  let keep = List.filteri (fun i _ -> List.nth s.threads i <= 16) in
  {
    threads = List.filter (fun n -> n <= 16) s.threads;
    columns = s.columns;
    cells = Array.map (fun col -> Array.of_list (keep (Array.to_list col))) s.cells;
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

let kv_run store ~make_workload (e : R.entry) ~topology ~n_threads ~duration
    ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for topology [ n_threads ]) in
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

let kv_ops_per_sec store (e : R.entry) ~topology ~n_threads ~duration ~seed
    ~mix =
  kv_run store
    ~make_workload:(fun ~tid ->
      W.make ~seed:(seed + (tid * 131) + 7) ~n_keys:kv_keys ~mix)
    e ~topology ~n_threads ~duration ~seed

let table1 ?(locks = R.app_locks) ~topology ~threads ~duration ~seed ~mix () =
  (* Normalisation baseline: pthread at one thread, same mix. *)
  let pthread =
    match R.find "pthread" with Some e -> e | None -> assert false
  in
  let store = kv_store () in
  let base =
    kv_ops_per_sec store pthread ~topology ~n_threads:1 ~duration ~seed ~mix
  in
  lock_table
    ~title:
      (Printf.sprintf
         "Table 1: memcached-style KV store, %s (speedup over pthread @ 1 \
          thread)"
         mix.W.label)
    locks threads
    (fun e n ->
      kv_ops_per_sec store e ~topology ~n_threads:n ~duration ~seed ~mix
      /. base)

(* --- Table 2: allocator stress (mmicro) -------------------------------- *)

(* One mmicro run; returns malloc-free pairs per millisecond. Each thread
   repeatedly allocates a 64-byte block, initialises its first words, and
   frees it, with a ~2 us delay after each call (calibrated to the paper's
   ~200 pairs/ms single-thread rate). The run ends at [duration] and
   counts the pairs completed before it. *)
let mmicro_pairs_per_ms (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for topology [ n_threads ]) in
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

let table2 ?(locks = R.app_locks) ~topology ~threads ~duration ~seed () =
  lock_table
    ~title:"Table 2: libc-style allocator, mmicro (malloc-free pairs / ms)"
    locks threads (fun e n ->
      mmicro_pairs_per_ms e ~topology ~n_threads:n ~duration ~seed)

(* --- Extension: saturation collapse (GCR concurrency restriction) -------- *)

(* The sweeps above stop at the machine's contexts; this experiment goes
   past them, to thousands of logical threads, where spin locks hit
   scalability collapse (Dice & Kogan, arXiv 1905.10818). The simulator
   has no timeslicing — oversubscribed fibers run concurrently in sim
   time — so the scheduler is modelled explicitly in the workload:
   whenever a thread's quantum has expired at a checkpoint it is
   descheduled for a full round of its context's share of the
   oversubscription ([(oversub - 1) * quantum]).

   Two charges per iteration:
   - {e CPU sharing}, before joining the lock competition: when a
     thread's quantum has expired it pauses for the rest of the round —
     every oversubscribed thread pays this, in parallel, so it scales
     offered load down by the oversubscription factor without
     serializing anyone;
   - {e waiter preemption}, right after acquiring: a thread whose
     acquire took longer than a quantum {e while spinning} necessarily
     lost the CPU mid-wait, so the handoff landed on a descheduled
     thread and the critical section cannot start until its next slot —
     charged as a full round {e while holding the lock}. Under
     saturation every FIFO-lock handoff hits this, so throughput
     collapses to about one critical section per round.

   The parked/runnable distinction is what GCR sells: a parked thread
   yielded its CPU voluntarily, so it stops competing for quanta, and
   both charges are computed over the {e currently runnable} thread
   count — once enough threads park, the run queue fits the machine and
   the round shrinks to zero. The workload learns the parked population
   from the lock's own [Gcr_park]/[Gcr_unpark] trace events (a private
   sink teed into the config; plain locks emit neither, so all their
   threads stay runnable and the full round applies). A woken thread is
   never charged for its park-side wait (the lock already charges
   [resume_cost]) and gets a fresh quantum, as a real dispatch would
   grant. Without the runnable-count feedback the model convoys: the
   k warm actives queue behind each other, each wait then exceeds the
   quantum, each holder is charged a round while holding, which is what
   made the waits long — a bootstrapped collapse that a real scheduler
   with an empty run queue does not produce. *)

let collapse_quantum = 10_000 (* ns *)
let collapse_cs = 150 (* ns inside the critical section *)
let collapse_noncs = 200 (* ns between sections, + U[0,300) *)

(* The LBench loop with the scheduler model as its hooks: quanta
   staggered by the thread's PRNG (so the first round of deschedules is
   not one synchronized convoy), CPU sharing before the acquire, and the
   park/waiter-preemption check right after the grant. *)
let collapse_workload (e : R.entry) ~topology ~n_threads =
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
  let cfg = e.tweak (cfg_for topology [ n_threads ]) in
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

let collapse_run (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let workload, cfg = collapse_workload e ~topology ~n_threads in
  Lbench.run_workload workload ~name:e.name e.lock ~topology ~cfg ~n_threads
    ~duration ~seed

let collapse_sweep ?(locks = R.collapse_locks) ~topology ~threads ~duration
    ~seed () =
  grid ~threads ~name:(fun (e : R.entry) -> e.name) locks (fun e n ->
      collapse_run e ~topology ~n_threads:n ~duration ~seed)
