open Numa_base
module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module R = Lock_registry
module Kv = Apps.Kvstore.Make (Numasim.Sim_mem)
module W = Apps.Kv_workload
module Alloc = Apps.Allocator.Make (Numasim.Sim_mem)
module Table = Cohort.Cohort_locks.Make (Numasim.Sim_mem)

type sweep = {
  threads : int list;
  columns : string list;
  cells : Lbench.result array array;
}

let params_summary ~topology ~duration ~seed =
  Printf.sprintf "topology=%s duration=%dms seed=%d"
    topology.Topology.name (duration / 1_000_000) seed

let base_cfg topology =
  {
    LI.default with
    LI.clusters = topology.Topology.clusters;
    max_threads = Topology.total_threads topology;
  }

(* Locks size their per-thread state from [max_threads], so an
   oversubscribed sweep (logical threads beyond the machine's contexts)
   must widen it to the largest count in the sweep. For in-capacity
   sweeps the fold changes nothing, keeping historical configs — and
   hence golden results — bit-identical. *)
let cfg_for topology threads =
  {
    (base_cfg topology) with
    LI.max_threads =
      List.fold_left max (Topology.total_threads topology) threads;
  }

let cfg_for_n topology n = cfg_for topology [ n ]

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

let abortable_sweep ?(locks = R.abortable_locks) ?(rollup = false)
    ?(profile = false) ~topology ~threads ~duration ~seed ~patience () =
  let cfg = cfg_for topology threads in
  grid ~threads ~name:(fun (e : R.abortable_entry) -> e.a_name) locks (fun e ->
      let cfg = e.a_tweak cfg in
      fun n ->
        Lbench.run_abortable ~name:e.a_name ~rollup ~profile e.a_lock
          ~topology ~cfg ~n_threads:n ~duration ~seed ~patience)

let rows_of sweep f =
  List.mapi
    (fun row n ->
      (n, Array.map (fun col -> f col.(row)) sweep.cells))
    sweep.threads

let throughput_rows s = rows_of s (fun r -> r.Lbench.throughput)
let misses_rows s = rows_of s (fun r -> r.Lbench.misses_per_cs)
let fairness_rows s = rows_of s (fun r -> r.Lbench.fairness_stddev_pct)
let abort_rate_rows s = rows_of s (fun r -> 100. *. r.Lbench.abort_rate)

let low_contention s =
  let keep = List.filteri (fun i _ -> List.nth s.threads i <= 16) in
  {
    threads = List.filter (fun n -> n <= 16) s.threads;
    columns = s.columns;
    cells = Array.map (fun col -> Array.of_list (keep (Array.to_list col))) s.cells;
  }

let print_fig2 s =
  Report.print_series
    ~title:"Figure 2: LBench throughput (critical+non-critical pairs / s)"
    ~x_label:"threads" ~columns:s.columns ~rows:(throughput_rows s)
    ~fmt:Report.fmt_si ()

let print_fig3 s =
  Report.print_series
    ~title:"Figure 3: L2 coherence misses per critical section (lower is better)"
    ~x_label:"threads" ~columns:s.columns ~rows:(misses_rows s)
    ~fmt:Report.fmt_fixed2 ()

let print_fig4 s =
  let s = low_contention s in
  Report.print_series
    ~title:"Figure 4: LBench throughput at low contention (1-16 threads)"
    ~x_label:"threads" ~columns:s.columns ~rows:(throughput_rows s)
    ~fmt:Report.fmt_si ()

let print_fig5 s =
  Report.print_series
    ~title:
      "Figure 5: fairness — stddev of per-thread throughput (% of mean, lower \
       is fairer)"
    ~x_label:"threads" ~columns:s.columns ~rows:(fairness_rows s)
    ~fmt:Report.fmt_fixed1 ()

let print_fig6 s =
  Report.print_series
    ~title:"Figure 6: abortable lock throughput (pairs / s)"
    ~x_label:"threads" ~columns:s.columns ~rows:(throughput_rows s)
    ~fmt:Report.fmt_si ();
  Report.print_series
    ~title:"Figure 6 (companion): abort rate (%)"
    ~x_label:"threads" ~columns:s.columns ~rows:(abort_rate_rows s)
    ~fmt:Report.fmt_fixed2 ()

(* --- Table 1: memcached-style KV store -------------------------------- *)

type table = {
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
}

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
  let cfg = e.tweak (cfg_for_n topology n_threads) in
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
  let rows =
    List.map
      (fun n ->
        ( n,
          Array.of_list
            (List.map
               (fun e ->
                 kv_ops_per_sec store e ~topology ~n_threads:n ~duration ~seed
                   ~mix
                 /. base)
               locks) ))
      threads
  in
  {
    t_title =
      Printf.sprintf
        "Table 1: memcached-style KV store, %s (speedup over pthread @ 1 \
         thread)"
        mix.W.label;
    t_xlabel = "threads";
    t_columns = List.map (fun (e : R.entry) -> e.name) locks;
    t_rows = rows;
  }

(* --- Table 2: allocator stress (mmicro) -------------------------------- *)

(* One mmicro run; returns malloc-free pairs per millisecond. Each thread
   repeatedly allocates a 64-byte block, initialises its first words, and
   frees it, with a ~2 us delay after each call (calibrated to the paper's
   ~200 pairs/ms single-thread rate). *)
let mmicro_pairs_per_ms (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for_n topology n_threads) in
  let l = L.create cfg in
  let alloc = Alloc.create () in
  let pairs = ref 0 in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
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
             incr pairs;
             delay ();
             loop ()
           end
         in
         loop ()));
  float_of_int !pairs /. (float_of_int duration /. 1e6)

let table2 ?(locks = R.app_locks) ~topology ~threads ~duration ~seed () =
  let rows =
    List.map
      (fun n ->
        ( n,
          Array.of_list
            (List.map
               (fun e ->
                 mmicro_pairs_per_ms e ~topology ~n_threads:n ~duration ~seed)
               locks) ))
      threads
  in
  {
    t_title = "Table 2: libc-style allocator, mmicro (malloc-free pairs / ms)";
    t_xlabel = "threads";
    t_columns = List.map (fun (e : R.entry) -> e.name) locks;
    t_rows = rows;
  }

let print_table t =
  Report.print_series ~title:t.t_title ~x_label:t.t_xlabel ~columns:t.t_columns
    ~rows:t.t_rows ~fmt:Report.fmt_fixed2 ()

(* "0=a, 1=b, ...": the row legend of a table whose rows are indices. *)
let legend names =
  String.concat ", " (List.mapi (fun i n -> Printf.sprintf "%d=%s" i n) names)

(* --- Ablations ---------------------------------------------------------- *)

let ablation_handoff_bound ~topology ~n_threads ~duration ~seed () =
  let bounds = [ 0; 1; 4; 16; 64; 256; 100_000 ] in
  let cfg = cfg_for_n topology n_threads in
  let locks = [ "C-BO-MCS"; "C-TKT-MCS" ] in
  let rows =
    List.map
      (fun bound ->
        let vals =
          List.concat_map
            (fun name ->
              let e = Option.get (R.find name) in
              let cfg = { (e.tweak cfg) with LI.max_local_handoffs = bound } in
              let r =
                Lbench.run ~name e.lock ~topology ~cfg ~n_threads ~duration
                  ~seed
              in
              [ r.Lbench.throughput /. 1e6; r.Lbench.fairness_stddev_pct ])
            locks
        in
        (bound, Array.of_list vals))
      bounds
  in
  {
    t_title =
      Printf.sprintf
        "Ablation: may-pass-local bound at %d threads (throughput Mops/s and \
         fairness stddev%%)"
        n_threads;
    t_xlabel = "bound";
    t_columns =
      List.concat_map (fun n -> [ n ^ " tput"; n ^ " unfair%" ]) locks;
    t_rows = rows;
  }

let ablation_hbo_tuning ~topology ~duration ~seed () =
  let presets =
    [ ("HBO micro-tuned", R.hbo_micro); ("HBO app-tuned", R.hbo_app) ]
  in
  let thread_counts = [ 32; 128 ] in
  let hbo = Option.get (R.find "HBO") in
  let store = kv_store () in
  let rows =
    List.map
      (fun n ->
        let vals =
          List.concat_map
            (fun (_, tweak) ->
              let cfg = tweak (cfg_for_n topology n) in
              let lb =
                Lbench.run ~name:"HBO" hbo.R.lock ~topology ~cfg ~n_threads:n
                  ~duration ~seed
              in
              let kv =
                kv_ops_per_sec store
                  { hbo with R.tweak = tweak }
                  ~topology ~n_threads:n ~duration ~seed ~mix:W.write_heavy
              in
              [ lb.Lbench.throughput /. 1e6; kv /. 1e6 ])
            presets
        in
        (n, Array.of_list vals))
      thread_counts
  in
  {
    t_title =
      "Ablation: HBO backoff-parameter instability (Mops/s; columns: preset x \
       workload)";
    t_xlabel = "threads";
    t_columns =
      List.concat_map
        (fun (p, _) -> [ p ^ " | LBench"; p ^ " | KV wr-heavy" ])
        presets;
    t_rows = rows;
  }

let ablation_policy ~topology ~n_threads ~duration ~seed () =
  (* The paper's counted policy (bound 64) vs the time-budget policy its
     section 2.1 suggests, on a fair-global cohort lock so fairness
     reflects the policy rather than global-lock arbitration. *)
  let cfg = cfg_for_n topology n_threads in
  let e = Option.get (R.find "C-TKT-MCS") in
  let policies =
    [
      ("counted 64", { cfg with LI.handoff_policy = LI.Counted });
      ( "counted 16",
        { cfg with LI.handoff_policy = LI.Counted; max_local_handoffs = 16 } );
      ("timed 5us", { cfg with LI.handoff_policy = LI.Timed 5_000 });
      ("timed 50us", { cfg with LI.handoff_policy = LI.Timed 50_000 });
      ( "count|time 10us",
        { cfg with LI.handoff_policy = LI.Counted_or_timed 10_000 } );
      ("unbounded", { cfg with LI.handoff_policy = LI.Unbounded });
    ]
  in
  let rows =
    List.mapi
      (fun i (_, cfg) ->
        let r =
          Lbench.run ~name:e.R.name e.R.lock ~topology ~cfg ~n_threads
            ~duration ~seed
        in
        ( i,
          [|
            r.Lbench.throughput /. 1e6;
            r.Lbench.fairness_stddev_pct;
            float_of_int r.Lbench.migrations;
          |] ))
      policies
  in
  {
    t_title =
      Printf.sprintf
        "Ablation: may-pass-local policy on C-TKT-MCS at %d threads (rows: %s)"
        n_threads
        (legend (List.map fst policies));
    t_xlabel = "policy#";
    t_columns = [ "Mops/s"; "unfair%"; "migrations" ];
    t_rows = rows;
  }

(* --- Extension: blocking cohort lock ------------------------------------ *)

module Blk = Cohort.Park_lock.Make (Numasim.Sim_mem)

let extension_blocking ~topology ~threads ~duration ~seed () =
  let locks =
    [
      Option.get (R.find "pthread");
      R.plain "BLK" (module Blk.Plain : LI.LOCK);
      R.plain "C-BLK-BLK" Table.c_blk_blk;
      Option.get (R.find "C-BO-MCS");
    ]
  in
  let t =
    table1 ~locks ~topology ~threads ~duration ~seed ~mix:W.write_heavy ()
  in
  {
    t with
    t_title =
      "Extension: blocking cohort lock (C-BLK-BLK) on the write-heavy KV \
       workload (speedup over pthread @ 1 thread)";
  }

(* --- Extension: NUMA-aware reader-writer lock --------------------------- *)

module Rw = (val Table.c_rw_wp)
module RwMutex = (val Table.get ~global:"BO" ~local:"MCS")

(* Threads share a structure under either a plain cohort mutex (writers
   and readers both take it) or the RW cohort lock; returns Mops/s. *)
(* One loop for both locks: a thread's [lock]/[unlock] take [write]; the
   plain mutex ignores it. *)
let rw_run ~use_rw ~topology ~n_threads ~write_ratio ~duration ~seed =
  let cfg = cfg_for_n topology n_threads in
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
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
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
             incr ops;
             M.pause (500 + Prng.int rng 500);
             loop ()
           end
         in
         loop ()));
  float_of_int !ops /. (float_of_int duration *. 1e-9)

let extension_rw ~topology ~n_threads ~duration ~seed () =
  let ratios = [ 0.01; 0.1; 0.5; 0.9 ] in
  let rows =
    List.map
      (fun ratio ->
        let mutex =
          rw_run ~use_rw:false ~topology ~n_threads ~write_ratio:ratio
            ~duration ~seed
        in
        let rw =
          rw_run ~use_rw:true ~topology ~n_threads ~write_ratio:ratio
            ~duration ~seed
        in
        ( int_of_float (ratio *. 100.),
          [| mutex /. 1e6; rw /. 1e6; rw /. mutex |] ))
      ratios
  in
  {
    t_title =
      Printf.sprintf
        "Extension: NUMA-aware reader-writer lock (C-RW-WP) vs cohort mutex \
         at %d threads"
        n_threads;
    t_xlabel = "write%";
    t_columns = [ "mutex Mops/s"; "C-RW-WP Mops/s"; "speedup" ];
    t_rows = rows;
  }

let latency_p99_rows s = rows_of s (fun r -> r.Lbench.acquire_p99)

let print_fig5_latency s =
  Report.print_series
    ~title:
      "Figure 5 (companion): p99 acquire latency (ns) — the per-acquisition \
       face of unfairness"
    ~x_label:"threads" ~columns:s.columns ~rows:(latency_p99_rows s)
    ~fmt:Report.fmt_si ()

(* --- Cohort gain across machines ------------------------------------------- *)

(* MCS vs C-BO-MCS on each machine, at [n_threads] capped to its contexts. *)
let cohort_gain ~title ~topologies ~n_threads ~duration ~seed =
  let mcs = Option.get (R.find "MCS") in
  let cbm = Option.get (R.find "C-BO-MCS") in
  let rows =
    List.mapi
      (fun i (_, topology) ->
        let n = min n_threads (Topology.total_threads topology) in
        let cfg = base_cfg topology in
        let run (e : R.entry) =
          (Lbench.run ~name:e.R.name e.R.lock ~topology ~cfg:(e.R.tweak cfg)
             ~n_threads:n ~duration ~seed)
            .Lbench.throughput /. 1e6
        in
        let m = run mcs and c = run cbm in
        (i, [| m; c; c /. m |]))
      topologies
  in
  {
    t_title =
      Printf.sprintf "%s at %d threads (rows: %s)" title n_threads
        (legend (List.map fst topologies));
    t_xlabel = "machine#";
    t_columns = [ "MCS Mops/s"; "C-BO-MCS Mops/s"; "cohort gain" ];
    t_rows = rows;
  }

(* The cohort advantage should grow with the machine's NUMA factor and
   vanish on a UMA machine (negative control). *)
let topology_sensitivity ~n_threads ~duration ~seed () =
  cohort_gain ~title:"Topology sensitivity" ~n_threads ~duration ~seed
    ~topologies:
      [
        ( "uma",
          Topology.make ~name:"uma" ~clusters:4 ~threads_per_cluster:64
            Latency.uniform );
        ( "2-socket",
          Topology.make ~name:"2s" ~clusters:2 ~threads_per_cluster:32
            Latency.two_socket_x86 );
        ("t5440", Topology.t5440);
        ( "8-socket",
          Topology.make ~name:"8s" ~clusters:8 ~threads_per_cluster:32
            Latency.t5440 );
      ]

(* Same shape (4 clusters x 64), different cost structure: t5440 pays one
   flat tier for every cross-cluster transfer, the rack preset pays a
   cheap socket tier or an expensive rack tier depending on how far the
   lock migrates. Cohorting should widen its lead when migration can
   cross a rack. *)
let hierarchy_comparison ~n_threads ~duration ~seed () =
  cohort_gain ~n_threads ~duration ~seed
    ~title:
      "Extension: hierarchical machine (flat t5440 vs 2-rack x 2-socket)"
    ~topologies:[ ("t5440", Topology.t5440); ("rack", Topology.rack) ]

(* --- Extension: bi-modal workload ----------------------------------------- *)

(* The paper motivates write-heavy testing with servers that "exhibit
   bi-modal behavior, alternating between write-heavy and read-heavy
   phases" (section 4.2). Cohort locks need no retuning across phases;
   HBO's fixed backoff parameters cannot suit both. *)
let extension_bimodal ~topology ~n_threads ~duration ~seed () =
  let locks =
    List.filter
      (fun (e : R.entry) ->
        List.mem e.R.name [ "pthread"; "MCS"; "HBO"; "C-BO-MCS"; "C-TKT-MCS" ])
      R.app_locks
  in
  let store = kv_store () in
  let run e =
    kv_run store
      ~make_workload:(fun ~tid ->
        W.make_bimodal ~seed:(seed + (tid * 131) + 7) ~n_keys:kv_keys
          ~period:500 ~mix_a:W.read_heavy ~mix_b:W.write_heavy)
      e ~topology ~n_threads ~duration ~seed
  in
  let base = run (Option.get (R.find "pthread")) in
  let rows =
    [ (n_threads, Array.of_list (List.map (fun e -> run e /. base) locks)) ]
  in
  {
    t_title =
      Printf.sprintf
        "Extension: bi-modal workload (alternating read-/write-heavy phases) \
         at %d threads (speedup over pthread)"
        n_threads;
    t_xlabel = "threads";
    t_columns = List.map (fun (e : R.entry) -> e.R.name) locks;
    t_rows = rows;
  }

(* --- Successor comparison ------------------------------------------------- *)

(* The repo's first paper-vs-successor table: the 2012 cohort flagship
   against two later designs — CNA (Dice & Kogan, arXiv 1810.05600),
   which gets NUMA-aware handoff out of a single MCS-compatible lock
   word, and the partition ticket lock, which buys waiter-local spinning
   with a per-thread slot array. Throughput plus the two profiler
   metrics the competing claims rest on: remote transfers per
   acquisition (NUMA locality) and distinct lock-metadata cache lines
   touched (memory footprint — CNA's headline advantage, PTL's headline
   cost). *)
let successor_comparison ~topology ~n_threads ~duration ~seed () =
  let names = [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ] in
  let cfg = cfg_for_n topology n_threads in
  let rows =
    List.mapi
      (fun i name ->
        let e = Option.get (R.find name) in
        let r =
          Lbench.run ~name:e.R.name ~profile:true e.R.lock ~topology
            ~cfg:(e.R.tweak cfg) ~n_threads ~duration ~seed
        in
        let p = Option.get r.Lbench.profile in
        ( i,
          [|
            r.Lbench.throughput /. 1e6;
            Numa_trace.Profile.remote_transfers_per_acquire p
              ~acquires:r.Lbench.iterations;
            float_of_int (Numa_trace.Profile.lock_lines p);
          |] ))
      names
  in
  {
    t_title =
      Printf.sprintf
        "Successors: cohort flagship vs CNA and partition ticket at %d \
         threads (rows: %s)"
        n_threads (legend names);
    t_xlabel = "lock#";
    t_columns = [ "Mops/s"; "xfers/acq"; "lock lines" ];
    t_rows = rows;
  }

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
let collapse_noncs = 200 (* ns between sections, + up to 300 random *)

let collapse_run (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for_n topology n_threads) in
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
  let cfg = { cfg with LI.trace = Numa_trace.Sink.tee park_sink cfg.LI.trace } in
  (* Trace-ring rollup, as in Bench_core: hold/batch quantiles for the
     collapse trajectory. No latency histogram here, so the wait
     quantiles stay unset (null in the artifact). *)
  let ring = Numa_trace.Ring.create ~capacity:65_536 in
  let cfg =
    { cfg with LI.trace = Numa_trace.Sink.tee (Numa_trace.Ring.sink ring) cfg.LI.trace }
  in
  let l = L.create cfg in
  let contexts = Topology.total_threads topology in
  let oversub = (n_threads + contexts - 1) / contexts in
  let round () =
    let runnable = n_threads - !parked_now in
    let ov = (runnable + contexts - 1) / contexts in
    (ov - 1) * collapse_quantum
  in
  let per_thread = Array.make n_threads 0 in
  let migrations = ref 0 in
  let last_cluster = ref (-1) in
  let run =
    E.run ~topology ~n_threads (fun ~tid ~cluster ->
        let th = L.register l ~tid ~cluster in
        let rng = Prng.create (seed + (tid * 7919) + 11) in
        (* Quanta staggered so the first round of deschedules is not one
           synchronized convoy. *)
        let next = ref (Prng.int rng collapse_quantum) in
        let preempt () =
          if oversub > 1 && M.now () >= !next then begin
            let r = round () in
            if r > 0 then M.pause r;
            next := M.now () + collapse_quantum
          end
        in
        let rec loop () =
          if M.now () < duration then begin
            preempt ();
            let t0 = M.now () in
            L.acquire th;
            let parked = woke.(tid) in
            woke.(tid) <- false;
            if parked then
              (* Just dispatched from a wakeup: fresh quantum. *)
              next := M.now () + collapse_quantum
            else if oversub > 1 && M.now () - t0 > collapse_quantum then begin
              (* Waiter preemption: the spin outlived the quantum, so
                 ownership arrived while this thread was descheduled —
                 charged while holding, for a round over the runnable
                 population. *)
              let r = round () in
              if r > 0 then M.pause r;
              next := M.now () + collapse_quantum
            end;
            (* Only work inside the measurement window counts; the
               post-window queue drain must still run (blocked acquires
               have to complete) but not inflate the collapsed locks. *)
            if M.now () < duration then begin
              per_thread.(tid) <- per_thread.(tid) + 1;
              if !last_cluster <> cluster then begin
                if !last_cluster >= 0 then incr migrations;
                last_cluster := cluster
              end
            end;
            M.pause collapse_cs;
            L.release th;
            M.pause (collapse_noncs + Prng.int rng 300);
            loop ()
          end
        in
        loop ())
  in
  let iterations = Array.fold_left ( + ) 0 per_thread in
  let dur_s = float_of_int duration *. 1e-9 in
  let mean = float_of_int iterations /. float_of_int n_threads in
  let fairness_stddev_pct =
    if iterations = 0 then Float.nan
    else
      let var =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. mean in
            acc +. (d *. d))
          0. per_thread
        /. float_of_int n_threads
      in
      100. *. sqrt var /. mean
  in
  {
    Lbench.lock_name = e.name;
    n_threads;
    duration_ns = duration;
    iterations;
    throughput = float_of_int iterations /. dur_s;
    per_thread;
    fairness_stddev_pct;
    migrations = !migrations;
    misses_per_cs = Float.nan;
    aborts = 0;
    abort_rate = 0.;
    acquire_p50 = Float.nan;
    acquire_p99 = Float.nan;
    acquire_max = Float.nan;
    rollup = Some (Numa_trace.Metrics.of_events (Numa_trace.Ring.events ring));
    profile = None;
    (* The analytic model is calibrated to the LBench loop; the collapse
       workload (preemption, different CS/idle constants) is out of its
       stated scope. *)
    predicted = None;
    event_classes = Numasim.Sim_runtime.event_classes run;
  }

let collapse_sweep ?(locks = R.collapse_locks) ~topology ~threads ~duration
    ~seed () =
  grid ~threads ~name:(fun (e : R.entry) -> e.name) locks (fun e n ->
      collapse_run e ~topology ~n_threads:n ~duration ~seed)

let print_collapse ~topology s =
  Report.print_series
    ~title:
      (Printf.sprintf
         "Collapse: throughput under oversubscription on %s (%d contexts; \
          pairs / s)"
         topology.Topology.name
         (Topology.total_threads topology))
    ~x_label:"threads" ~columns:s.columns ~rows:(throughput_rows s)
    ~fmt:Report.fmt_si ()

(* --- The composition matrix ---------------------------------------------- *)

let composition_matrix ~topology ~n_threads ~duration ~seed () =
  let cfg = cfg_for_n topology n_threads in
  let globals = List.map fst Table.globals in
  let locals = List.map fst Table.locals in
  let rows =
    List.mapi
      (fun gi global ->
        let vals =
          List.map
            (fun local ->
              (Lbench.run (Table.get ~global ~local) ~topology ~cfg ~n_threads
                 ~duration ~seed)
                .Lbench.throughput /. 1e6)
            locals
        in
        (gi, Array.of_list vals))
      globals
  in
  {
    t_title =
      Printf.sprintf
        "Composition matrix at %d threads (Mops/s; rows = global lock %s, \
         columns = local lock)"
        n_threads
        (String.concat "/" globals);
    t_xlabel = "global#";
    t_columns = locals;
    t_rows = rows;
  }
