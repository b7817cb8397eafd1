(* The experiment catalogue; see catalogue.mli. *)

open Numa_base
module X = Experiments
module LR = Lock_registry
module LI = Cohort.Lock_intf
module W = Apps.Kv_workload

type params = {
  topology : Topology.t;
  threads : int list;
  n_threads : int;
  duration : int;
  seed : int;
  patience : int;
  mixes : W.mix list;
  locks : string list;
  check : bool;
}

type env = {
  sink : Numa_trace.Sink.t;
  rollup : bool;
  profile : bool;
  csv_dir : string option;
}

type knob =
  | Topology
  | Threads
  | N_threads of string
  | Duration
  | Seed
  | Patience
  | Mix
  | Locks of string * string list
  | Check of string * (params -> string option)
  | Csv
  | Trace
  | Emit
  | Profile
  | Fastpath

type rows = (X.point * X.row) list

type entry = {
  name : string;
  doc : string;
  knobs : knob list;
  defaults : params;
  in_all : params -> params;
  quick : params -> params;
  body : body;
}

and body =
  | Points of
      (env -> params -> X.point list)
      * (params -> rows -> (string * X.table) list)
  | Plan of bool

let default_threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 192; 256 ]
let app_threads = [ 1; 4; 8; 16; 32; 64; 96; 128 ]
let fig_quick p = { p with threads = [ 1; 8; 64; 256 ] }
let app_quick p = { p with threads = [ 1; 8; 32; 128 ] }
let core_locks = [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ]
let names = List.map (fun (e : LR.entry) -> e.LR.name)

let base =
  {
    topology = Topology.t5440;
    threads = default_threads;
    n_threads = 64;
    duration = 10_000_000;
    seed = 42;
    patience = 2_000_000;
    mixes = [ W.read_heavy; W.mixed; W.write_heavy ];
    locks = [];
    check = false;
  }

let entry ?(knobs = [ Topology; Duration; Seed; Csv ]) ?(defaults = base)
    ?(in_all = Fun.id) ?(quick = Fun.id) name doc points render =
  { name; doc; knobs; defaults; in_all; quick; body = Points (points, render) }

let contending = N_threads "Contending threads."
let observed = [ Csv; Trace; Emit ]
let traced env = List.map (LR.with_trace env.sink)
let find name = Option.get (LR.find name)
let find_all = List.map find

(* --- Points and rows ------------------------------------------------------ *)

(* A point at the entry's machine, window and seed. *)
let point p ~experiment ~lock ~cfg n workload =
  {
    X.experiment;
    lock;
    n_threads = n;
    topology = p.topology;
    duration = p.duration;
    seed = p.seed;
    cfg;
    workload;
  }

(* [locks] x [threads] at the entry's machine, window and seed. *)
let grid ?cfg ?by_thread p ~experiment threads locks workload =
  X.lock_points ?cfg ?by_thread ~experiment ~topology:p.topology ~threads
    ~duration:p.duration ~seed:p.seed locks workload

(* LBench points of [locks] at [n] threads. *)
let lb ?(profile = false) ?cfg p ~experiment n locks =
  grid ?cfg p ~experiment [ n ] locks (fun e ->
      X.Lbench { lock = e.lock; rollup = false; profile })

(* An LBench sweep: the run's sink, and rollups under --emit-bench-json. *)
let lbench ?(locks = LR.microbench_locks) ?(profile = false) ~experiment env p
    =
  grid p ~experiment p.threads (traced env locks)
    ~cfg:(fun e _ -> e.tweak (X.cfg_for p.topology p.threads))
    (fun e -> X.Lbench { lock = e.lock; rollup = env.rollup; profile })

let kv_mix store mix (e : LR.entry) = X.Kv_mix { lock = e.lock; store; mix }
let res ((_, r) : X.point * X.row) = Option.get r.X.result
let tput (r : Lbench.result) = r.throughput
let ops (_, r) = X.metric "throughput" r
let mops row = ops row /. 1e6

(* One result field of an LBench sweep: a row per thread count, a column
   per lock. *)
let series ?(keep = fun _ -> true) p ~title fmt f rows =
  let first = List.hd p.threads in
  let locks =
    List.filter_map
      (fun ((q : X.point), _) ->
        if q.n_threads = first then Some q.lock else None)
      rows
  in
  X.lock_table ~title ~fmt ~locks ~threads:(List.filter keep p.threads)
    (fun r -> f (Option.get r.X.result))
    rows

(* A plan sweep's one table: throughput. *)
let throughput name title p rows =
  [ (name, series p ~title:(title p) Report.fmt_si tput rows) ]

(* "0=a, 1=b, ...": the row legend of a table whose rows are indices. *)
let legend names =
  String.concat ", " (List.mapi (fun i n -> Printf.sprintf "%d=%s" i n) names)

let indices l = List.init (List.length l) Fun.id

(* An entry that prints one two-decimal table named after it: row [x] of
   [xs] holds [cells] of the rows of [row p x]'s points. [row p] may hold
   state its rows share, such as a KV store. *)
let one_table ?(knobs = [ Topology; contending; Duration; Seed; Csv ])
    ?defaults name doc ~title ~xlabel ~columns ~xs row cells =
  entry ~knobs ?defaults name doc
    (fun _ p -> List.concat_map (row p) xs)
    (fun p rows ->
      let k = List.length rows / List.length xs in
      let cells i =
        Array.of_list (cells (List.filteri (fun j _ -> j / k = i) rows))
      in
      [
        ( name,
          {
            X.t_title = title p;
            t_xlabel = xlabel;
            t_columns = columns;
            t_rows = List.mapi (fun i x -> (x, cells i)) xs;
            t_fmt = Report.fmt_fixed2;
          } );
      ])

let write_csv dir (name, t) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".csv") in
  Report.write_file path (Report.csv_of_series t);
  Printf.printf "wrote %s\n%!" path

(* The artifact entries of a printed table: one per row, keyed by its CSV
   name, x label and x, each column's full-precision cell a metric. *)
let table_entries (name, (t : X.table)) =
  let entry (x, vs) =
    let metrics = List.combine t.t_columns (Array.to_list vs) in
    { Bench_json.experiment = name; lock = t.t_xlabel; threads = x; metrics }
  in
  List.map entry t.t_rows

(* --profile: each lock at its largest thread count, with its site table
   if the point collected one. *)
let print_top rows =
  let top (p : X.point) =
    List.for_all
      (fun ((q : X.point), _) -> q.lock <> p.lock || q.n_threads <= p.n_threads)
      rows
  in
  List.iter
    (fun (((p : X.point), _) as row) ->
      if top p then
        match p.workload with
        | X.Lbench { profile = true; _ } -> Report.print_profile (res row)
        | _ -> Report.print_classes (res row))
    rows

let gate = function
  | Ok msg -> Printf.printf "check OK: %s\n%!" msg
  | Error msg ->
      Printf.eprintf "check FAILED: %s\n%!" msg;
      exit 1

(* --- The experiments ---------------------------------------------------- *)

(* Figures 2-5 are views of one LBench sweep; an entry prints the
   [shown] ones. *)
let fig name shown doc =
  entry name doc ~quick:fig_quick
    ~knobs:([ Topology; Threads; Duration; Seed; Profile ] @ observed)
    (fun env p -> lbench ~profile:env.profile ~experiment:"lbench" env p)
    (fun p rows ->
      let view ?keep csv title fmt f =
        (csv, series ?keep p ~title fmt f rows)
      in
      List.filter
        (fun (csv, _) -> List.mem csv shown)
        [
          view "fig2"
            "Figure 2: LBench throughput (critical+non-critical pairs / s)"
            Report.fmt_si tput;
          view "fig3"
            "Figure 3: L2 coherence misses per critical section (lower is \
             better)"
            Report.fmt_fixed2 (fun r -> r.Lbench.misses_per_cs);
          view "fig4" ~keep:(fun n -> n <= 16)
            "Figure 4: LBench throughput at low contention (1-16 threads)"
            Report.fmt_si tput;
          view "fig5"
            "Figure 5: fairness — stddev of per-thread throughput (% of mean, \
             lower is fairer)"
            Report.fmt_fixed1 (fun r -> r.Lbench.fairness_stddev_pct);
          view "fig5-p99"
            "Figure 5 (companion): p99 acquire latency (ns) — the \
             per-acquisition face of unfairness"
            Report.fmt_si (fun r -> r.Lbench.acquire_p99);
        ])

let figs =
  fig "figs" [ "fig2"; "fig3"; "fig4"; "fig5"; "fig5-p99" ]
    "Figures 2-5 from one sweep."
let fig6 =
  entry "fig6" "Abortable lock throughput (Figure 6)." ~quick:fig_quick
    ~knobs:([ Topology; Threads; Duration; Seed; Patience ] @ observed)
    (fun env p ->
      let cfg = X.cfg_for p.topology p.threads in
      List.concat_map
        (fun (e : LR.abortable_entry) ->
          let e = LR.with_trace_abortable env.sink e in
          List.map
            (fun n ->
              point p ~experiment:"lbench-abortable" ~lock:e.a_name
                ~cfg:(e.a_tweak cfg) n
                (X.Abortable
                   {
                     lock = e.a_lock;
                     patience = p.patience;
                     rollup = env.rollup;
                   }))
            p.threads)
        LR.abortable_locks)
    (fun p rows ->
      [
        ( "fig6",
          series p ~title:"Figure 6: abortable lock throughput (pairs / s)"
            Report.fmt_si tput rows );
        ( "fig6-abort-rate",
          series p ~title:"Figure 6 (companion): abort rate (%)"
            Report.fmt_fixed2
            (fun r -> 100. *. r.Lbench.abort_rate)
            rows );
      ])

(* A KV speedup table's points: [locks] x [threads] thread count by
   thread count, after the pthread baseline at [base_threads] unless a
   cell is it. *)
let kv_points ?base_threads p ~experiment threads locks workload =
  X.kv_points ?base_threads ~experiment ~locks ~topology:p.topology ~threads
    ~duration:p.duration ~seed:p.seed workload

let table1_csv mix =
  Printf.sprintf "table1_%.0fpct_sets" (mix.W.set_ratio *. 100.)

let table1 =
  entry "table1" "memcached-style KV store speedups (Table 1)."
    ~knobs:[ Topology; Threads; Duration; Seed; Mix; Csv; Trace ]
    ~defaults:{ base with threads = app_threads } ~quick:app_quick
    (fun env p ->
      let store = lazy (X.kv_store ()) in
      List.concat_map
        (fun mix ->
          kv_points p ~experiment:(table1_csv mix) p.threads
            (traced env LR.app_locks) (kv_mix store mix))
        p.mixes)
    (fun p rows ->
      List.map
        (fun mix ->
          let csv = table1_csv mix in
          ( csv,
            X.kv_table ~title:(X.table1_title mix) ~locks:(names LR.app_locks)
              ~threads:p.threads
              (List.filter (fun ((q : X.point), _) -> q.experiment = csv) rows)
          ))
        p.mixes)

let table2 =
  entry "table2" "Allocator stress, malloc-free pairs/ms (Table 2)."
    ~knobs:[ Topology; Threads; Duration; Seed; Csv; Trace ]
    ~defaults:{ base with threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 255 ] }
    ~quick:(fun p -> { p with threads = [ 1; 8; 64; 255 ] })
    (fun env p ->
      grid p ~by_thread:true ~experiment:"table2" p.threads
        (traced env LR.app_locks) (fun e -> X.Mmicro e.lock))
    (fun p rows ->
      [
        ( "table2",
          X.lock_table
            ~title:
              "Table 2: libc-style allocator, mmicro (malloc-free pairs / ms)"
            ~locks:(names LR.app_locks) ~threads:p.threads
            (X.metric "pairs_per_ms") rows );
      ])

let handoff_locks = [ "C-BO-MCS"; "C-TKT-MCS" ]

let ablation_handoff =
  one_table "ablation-handoff"
    "Sweep of the may-pass-local bound (section 3.7)."
    ~title:(fun p ->
      Printf.sprintf
        "Ablation: may-pass-local bound at %d threads (throughput Mops/s and \
         fairness stddev%%)"
        p.n_threads)
    ~xlabel:"bound"
    ~columns:
      (List.concat_map (fun n -> [ n ^ " tput"; n ^ " unfair%" ]) handoff_locks)
    ~xs:[ 0; 1; 4; 16; 64; 256; 100_000 ]
    (fun p bound ->
      lb p ~experiment:"ablation-handoff" p.n_threads (find_all handoff_locks)
        ~cfg:(fun e n ->
          {
            (e.tweak (X.cfg_for p.topology [ n ])) with
            LI.max_local_handoffs = bound;
          }))
    (List.concat_map (fun r -> [ mops r; (res r).Lbench.fairness_stddev_pct ]))

(* HBO parameter instability (section 4.2): the microbenchmark-tuned and
   application-tuned presets, each on LBench and on the write-heavy KV
   workload. *)
let hbo_presets =
  [ ("HBO micro-tuned", LR.hbo_micro); ("HBO app-tuned", LR.hbo_app) ]

let ablation_hbo =
  one_table "ablation-hbo" "HBO backoff-parameter instability across workloads."
    ~knobs:[ Topology; Duration; Seed; Csv ]
    ~title:(fun _ ->
      "Ablation: HBO backoff-parameter instability (Mops/s; columns: preset x \
       workload)")
    ~xlabel:"threads"
    ~columns:
      (List.concat_map
         (fun (p, _) -> [ p ^ " | LBench"; p ^ " | KV wr-heavy" ])
         hbo_presets)
    ~xs:[ 32; 128 ]
    (fun p ->
      let store = lazy (X.kv_store ()) in
      fun n ->
        List.concat_map
          (fun (name, tweak) ->
            let hbo = [ { (find "HBO") with name; tweak } ] in
            lb p ~experiment:"ablation-hbo" n hbo
            @ grid p ~experiment:"ablation-hbo" [ n ] hbo
                (kv_mix store W.write_heavy))
          hbo_presets)
    (List.map mops)

(* The paper's counted policy (bound 64) vs the time-budget policy its
   section 2.1 suggests, on a fair-global cohort lock so fairness
   reflects the policy rather than global-lock arbitration. *)
let policies =
  [
    ("counted 64", fun cfg -> { cfg with LI.handoff_policy = LI.Counted });
    ( "counted 16",
      fun cfg ->
        { cfg with LI.handoff_policy = LI.Counted; max_local_handoffs = 16 } );
    ("timed 5us", fun cfg -> { cfg with LI.handoff_policy = LI.Timed 5_000 });
    ("timed 50us", fun cfg -> { cfg with LI.handoff_policy = LI.Timed 50_000 });
    ( "count|time 10us",
      fun cfg -> { cfg with LI.handoff_policy = LI.Counted_or_timed 10_000 } );
    ("unbounded", fun cfg -> { cfg with LI.handoff_policy = LI.Unbounded });
  ]

let ablation_policy =
  one_table "ablation-policy"
    "Counted vs time-budget may-pass-local policies (section 2.1)."
    ~title:(fun p ->
      Printf.sprintf
        "Ablation: may-pass-local policy on C-TKT-MCS at %d threads (rows: %s)"
        p.n_threads
        (legend (List.map fst policies)))
    ~xlabel:"policy#"
    ~columns:[ "Mops/s"; "unfair%"; "migrations" ]
    ~xs:(indices policies)
    (fun p i ->
      lb p ~experiment:"ablation-policy" p.n_threads [ find "C-TKT-MCS" ]
        ~cfg:(fun _ n ->
          snd (List.nth policies i) (X.cfg_for p.topology [ n ])))
    (List.concat_map (fun row ->
         let r = res row in
         [
           mops row;
           r.Lbench.fairness_stddev_pct;
           float_of_int r.Lbench.migrations;
         ]))

module Blk = Cohort.Park_lock.Make (Numasim.Sim_mem)

(* The blocking cohort lock C-BLK-BLK against the plain blocking mutex
   and C-BO-MCS on the write-heavy KV workload. *)
let blocking_locks =
  [
    find "pthread";
    LR.plain "BLK" (module Blk.Plain : LI.LOCK);
    LR.plain "C-BLK-BLK" LR.Table.c_blk_blk;
    find "C-BO-MCS";
  ]

let ext_blocking =
  entry "ext-blocking" "Extension: the blocking cohort lock C-BLK-BLK."
    ~knobs:[ Topology; Threads; Duration; Seed; Csv ]
    ~defaults:{ base with threads = app_threads } ~quick:app_quick
    (fun _ p ->
      kv_points p ~experiment:"ext-blocking" p.threads blocking_locks
        (kv_mix (lazy (X.kv_store ())) W.write_heavy))
    (fun p rows ->
      [
        ( "ext-blocking",
          X.kv_table
            ~title:
              "Extension: blocking cohort lock (C-BLK-BLK) on the write-heavy \
               KV workload (speedup over pthread @ 1 thread)"
            ~locks:(names blocking_locks) ~threads:p.threads rows );
      ])

let ext_rw =
  one_table "ext-rw" "Extension: the NUMA-aware reader-writer lock C-RW-WP."
    ~title:(fun p ->
      Printf.sprintf
        "Extension: NUMA-aware reader-writer lock (C-RW-WP) vs cohort mutex at \
         %d threads"
        p.n_threads)
    ~xlabel:"write%"
    ~columns:[ "mutex Mops/s"; "C-RW-WP Mops/s"; "speedup" ]
    ~xs:[ 1; 10; 50; 90 ]
    (fun p pct ->
      List.map
        (fun (lock, use_rw) ->
          point p ~experiment:"ext-rw" ~lock
            ~cfg:(X.cfg_for p.topology [ p.n_threads ])
            p.n_threads
            (X.Rw { use_rw; write_ratio = float_of_int pct /. 100. }))
        [ ("C-BO-MCS", false); ("C-RW-WP", true) ])
    (function
      | [ mutex; rw ] -> [ mops mutex; mops rw; ops rw /. ops mutex ]
      | _ -> assert false)

(* The paper motivates write-heavy testing with servers that "exhibit
   bi-modal behavior, alternating between write-heavy and read-heavy
   phases" (section 4.2). Cohort locks need no retuning across phases;
   HBO's fixed backoff parameters cannot suit both. *)
let bimodal_locks =
  find_all [ "pthread"; "MCS"; "HBO"; "C-BO-MCS"; "C-TKT-MCS" ]

let ext_bimodal =
  entry "ext-bimodal" "Extension: bi-modal (phase-alternating) KV workload."
    ~knobs:[ Topology; N_threads "Server threads."; Duration; Seed; Csv ]
    ~defaults:{ base with n_threads = 32 }
    (fun _ p ->
      let store = lazy (X.kv_store ()) in
      kv_points p ~base_threads:p.n_threads ~experiment:"ext-bimodal"
        [ p.n_threads ] bimodal_locks (fun e ->
          X.Kv_bimodal { lock = e.lock; store }))
    (fun p rows ->
      [
        ( "ext-bimodal",
          X.kv_table
            ~title:
              (Printf.sprintf
                 "Extension: bi-modal workload (alternating read-/write-heavy \
                  phases) at %d threads (speedup over pthread)"
                 p.n_threads)
            ~base_threads:p.n_threads ~locks:(names bimodal_locks)
            ~threads:[ p.n_threads ] rows );
      ])

(* MCS vs C-BO-MCS on each machine, at the entry's thread count capped to
   the machine's contexts. These fix their machines; the banner shows the
   default topology. *)
let cohort_gain ?defaults name doc ~title ~topologies =
  one_table ?defaults name doc ~knobs:[ contending; Duration; Seed; Csv ]
    ~title:(fun p ->
      Printf.sprintf "%s at %d threads (rows: %s)" title p.n_threads
        (legend (List.map fst topologies)))
    ~xlabel:"machine#"
    ~columns:[ "MCS Mops/s"; "C-BO-MCS Mops/s"; "cohort gain" ]
    ~xs:(indices topologies)
    (fun p i ->
      let topology = snd (List.nth topologies i) in
      lb { p with topology } ~experiment:name
        (min p.n_threads (Topology.total_threads topology))
        (find_all [ "MCS"; "C-BO-MCS" ]))
    (fun cells ->
      match List.map mops cells with
      | [ m; c ] -> [ m; c; c /. m ]
      | _ -> assert false)

(* The cohort advantage should grow with the machine's NUMA factor and
   vanish on a UMA machine (negative control). *)
let topology =
  cohort_gain "topology"
    "Cohort gain across machine shapes (UMA control, 2/4/8 sockets)."
    ~title:"Topology sensitivity"
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
let hier =
  cohort_gain "hier"
    "Flat T5440 vs the rack preset (two racks of two sockets, three latency \
     tiers): the cohort gain under deeper distance structure."
    ~defaults:{ base with topology = Topology.rack }
    ~title:"Extension: hierarchical machine (flat t5440 vs 2-rack x 2-socket)"
    ~topologies:[ ("t5440", Topology.t5440); ("rack", Topology.rack) ]

(* The paper's generality claim, measured: rows are the global locks in
   table order, columns the local locks. *)
let globals = List.map fst LR.Table.globals
let locals = List.map fst LR.Table.locals

let matrix =
  one_table "matrix"
    "LBench throughput of all 16 global x local cohort compositions."
    ~title:(fun p ->
      Printf.sprintf
        "Composition matrix at %d threads (Mops/s; rows = global lock %s, \
         columns = local lock)"
        p.n_threads
        (String.concat "/" globals))
    ~xlabel:"global#" ~columns:locals ~xs:(indices globals)
    (fun p i ->
      lb p ~experiment:"matrix" p.n_threads
        ~cfg:(fun _ n -> X.cfg_for p.topology [ n ])
        (List.map
           (fun local ->
             let global = List.nth globals i in
             let (module L : LI.LOCK) as lock = LR.Table.get ~global ~local in
             LR.plain L.name lock)
           locals))
    (List.map mops)

(* The first paper-vs-successor table: the 2012 cohort flagship against
   two later designs — CNA (Dice & Kogan, arXiv 1810.05600), which gets
   NUMA-aware handoff out of a single MCS-compatible lock word, and the
   partition ticket lock, which buys waiter-local spinning with a
   per-thread slot array. Throughput plus the two profiler metrics the
   competing claims rest on: remote transfers per acquisition (NUMA
   locality) and distinct lock-metadata cache lines touched (memory
   footprint — CNA's headline advantage, PTL's headline cost). The
   profile is stats-only, so schedules match the unprofiled sweeps. *)
let per_acq (r : Lbench.result) =
  match r.Lbench.profile with
  | Some pr ->
      Numa_trace.Profile.remote_transfers_per_acquire pr
        ~acquires:r.Lbench.iterations
  | None -> Float.nan

let lines (r : Lbench.result) =
  Option.fold ~none:0 ~some:Numa_trace.Profile.lock_lines r.Lbench.profile

let successors =
  one_table "successors"
    "Paper-vs-successor table: MCS and C-BO-MCS against CNA (compact \
     NUMA-aware lock) and the partition ticket lock \u{2014} throughput, \
     remote transfers per acquisition, and lock-metadata cache-line \
     footprint."
    ~title:(fun p ->
      Printf.sprintf
        "Successors: cohort flagship vs CNA and partition ticket at %d \
         threads (rows: %s)"
        p.n_threads (legend core_locks))
    ~xlabel:"lock#"
    ~columns:[ "Mops/s"; "xfers/acq"; "lock lines" ]
    ~xs:(indices core_locks)
    (fun p i ->
      lb ~profile:true p ~experiment:"successors" p.n_threads
        [ find (List.nth core_locks i) ])
    (List.concat_map (fun row ->
         let r = res row in
         [ mops row; per_acq r; float_of_int (lines r) ]))

(* The full LBench line-up on the hierarchical rack preset (two racks x
   two sockets, three latency tiers); only the plan runs it. *)
let rack =
  entry "rack" "LBench throughput on the rack preset." ~quick:fig_quick
    ~knobs:([ Topology; Duration; Seed ] @ observed)
    ~in_all:(fun p -> { p with topology = Topology.rack })
    (lbench ~experiment:"lbench-rack")
    (throughput "rack" (fun _ ->
         "Extension: LBench throughput on the rack preset (2 racks x 2 \
          sockets, pairs / s)"))

(* Oversubscription: 2048 logical threads wrap onto the T5440's 256
   contexts (8 fibers per hardware thread); short window, queue-lock
   subset \u{2014} the point is that the sweep completes and the cohort
   ordering survives heavy multiplexing. Only the plan runs it. *)
let oversub =
  entry "oversub" "Oversubscribed LBench on the T5440."
    ~knobs:([ Topology; Duration; Seed ] @ observed)
    ~defaults:{ base with threads = [ 512; 2048 ] }
    ~in_all:(fun p ->
      { p with topology = Topology.t5440; duration = 1_000_000 })
    ~quick:(fun p -> { p with duration = 400_000 })
    (lbench ~experiment:"lbench-oversub"
       ~locks:(find_all [ "MCS"; "C-BO-MCS"; "C-TKT-MCS"; "CNA" ]))
    (throughput "oversub" (fun _ ->
         "Extension: oversubscribed LBench (logical threads wrapped onto the \
          T5440's 256 contexts, pairs / s)"))

(* Saturation collapse: thread counts from capacity to far past it, under
   the explicit preemption model (Experiments.collapse_workload). Plain
   BO/TKT/MCS collapse once logical threads exceed contexts, GCR-wrapped
   locks hold. Each point ends at its window, so the standalone sweep
   through 8192 threads takes seconds of host time; the plan keeps its
   points (up to 4096 threads, 1 ms windows) so that the committed
   BENCH_*.json trajectory stays comparable. *)
let collapse =
  entry "collapse"
    "Saturation collapse under extreme oversubscription: plain BO/TKT/MCS \
     against their GCR concurrency-restricted wrappers and the cohort \
     reference, from in-capacity thread counts to thousands of logical \
     fibers. Each point ends at its measurement window: acquires still \
     blocked there are abandoned, never completed."
    ~knobs:
      ([
         Topology;
         Locks
           ( "Subset of the collapse line-up to run (default: all seven).",
             names LR.collapse_locks );
         Threads; Duration; Seed; Profile;
       ]
      @ observed)
    ~defaults:
      {
        base with
        threads = [ 64; 256; 1024; 4096; 8192 ];
        duration = 2_000_000;
        locks = names LR.collapse_locks;
      }
    ~in_all:(fun p ->
      { p with threads = [ 64; 1024; 2048; 4096 ]; duration = 1_000_000 })
    ~quick:(fun p ->
      { p with threads = [ 64; 1024; 2048 ]; duration = 500_000 })
    (fun env p ->
      grid p ~experiment:"collapse" p.threads
        (traced env (find_all p.locks))
        (fun e -> X.Collapse e.lock))
    (throughput "collapse" (fun p ->
         Printf.sprintf
           "Collapse: throughput under oversubscription on %s (%d contexts; \
            pairs / s)"
           p.topology.Topology.name
           (Topology.total_threads p.topology)))

let registry_locks doc = Locks (doc, names LR.all_locks)

(* The paper-claim gate (ci.sh): C-BO-MCS must move the lock data across
   clusters less often than plain MCS \u{2014} section 4's explanation of the
   cohort advantage, measured directly by the attribution profiler. The
   successor claim rides along: CNA's single lock word plus waiter nodes
   must touch strictly fewer lock-metadata lines than C-BO-MCS's
   global-lock + per-cluster-locks + counters layering. *)
let profile =
  entry "profile"
    "Per-lock, per-site coherence attribution profile (remote \
     cache-to-cache transfers, invalidations, stall-ns split by cause, \
     interconnect queueing) on the LBench workload."
    ~knobs:
      [
        Topology;
        registry_locks
          "Registry locks to profile (default: MCS C-BO-MCS CNA PTL).";
        contending; Duration; Seed;
        Check
          ( "Exit non-zero unless C-BO-MCS shows strictly fewer remote \
             transfers per acquisition than MCS, and CNA touches fewer \
             distinct lock-metadata cache lines than C-BO-MCS (the \
             paper-claim gate used by scripts/ci.sh).",
            fun p ->
              List.find_opt
                (fun n -> not (List.mem n p.locks))
                [ "MCS"; "C-BO-MCS"; "CNA" ]
              |> Option.map
                   (Printf.sprintf
                      "profile --check: lock %S not in the run (need MCS, \
                       C-BO-MCS and CNA)") );
      ]
    ~defaults:{ base with locks = core_locks }
    (fun env p ->
      lbench ~locks:(find_all p.locks) ~profile:true ~experiment:"lbench"
        { env with rollup = false }
        { p with threads = [ p.n_threads ] })
    (fun p rows ->
      let results =
        List.map (fun (((q : X.point), _) as r) -> (q.lock, res r)) rows
      in
      List.iter (fun (_, r) -> Report.print_profile r) results;
      Printf.printf
        "\nremote transfers per acquisition / lock-metadata lines @ %d \
         threads:\n"
        p.n_threads;
      List.iter
        (fun (name, r) ->
          Printf.printf "  %-12s %8.3f %6d lines\n" name (per_acq r) (lines r))
        results;
      if p.check then begin
        let get name = List.assoc name results in
        gate
          (Gates.transfers_claim ~mcs_per_acq:(per_acq (get "MCS"))
             ~cohort_per_acq:(per_acq (get "C-BO-MCS")));
        gate
          (Gates.lines_claim ~cna_lines:(lines (get "CNA"))
             ~cohort_lines:(lines (get "C-BO-MCS")))
      end;
      [])

(* The throughput oracle (doc/SIMULATOR.md "Model validation"): LBench
   with rollups on, predicted vs measured per point ranked by |error|;
   --check gates the median absolute error on the core curves. *)
let predict =
  entry "predict"
    "Analytic throughput prediction (serial/contended decomposition over \
     the trace rollup and interconnect stats) against the measured LBench \
     curves, ranked by error."
    ~knobs:
      [
        Topology;
        registry_locks
          "Registry locks to predict (default: MCS C-BO-MCS CNA PTL).";
        Threads; Duration; Seed;
        Check
          ( "Exit non-zero unless the median absolute prediction error on \
             the core curves (MCS, C-BO-MCS, CNA at the pinned thread \
             counts) stays within the stated band (the prediction gate used \
             by scripts/ci.sh).",
            fun p ->
              List.concat_map
                (fun lock ->
                  List.map (fun n -> (lock, n)) Gates.pred_core_threads)
                Gates.pred_core_locks
              |> List.find_opt (fun (lock, n) ->
                     not (List.mem lock p.locks && List.mem n p.threads))
              |> Option.map (fun (lock, n) ->
                     Printf.sprintf
                       "predict --check: core point %s @ %d threads not in \
                        the run (need %s at threads %s)"
                       lock n
                       (String.concat ", " Gates.pred_core_locks)
                       (String.concat ","
                          (List.map string_of_int Gates.pred_core_threads))) );
      ]
    ~defaults:{ base with threads = Gates.pred_core_threads; locks = core_locks }
    (fun env p ->
      lbench ~locks:(find_all p.locks) ~experiment:"lbench"
        { env with rollup = true } p)
    (fun p rows ->
      Report.print_predictions (List.map res rows);
      if p.check then
        gate
          (Gates.prediction_claim
             ~err_pcts:
               (List.concat_map
                  (fun lock ->
                    List.map
                      (fun n ->
                        Report.err_pct (Option.get (X.at rows lock n).X.result))
                      Gates.pred_core_threads)
                  Gates.pred_core_locks));
      [])

(* --- The plan ------------------------------------------------------------ *)

(* Everything [repro all] and [repro quick] run, in order. *)
let plan =
  [
    figs; fig6; table1; table2; ablation_handoff; ablation_hbo;
    ablation_policy; ext_blocking; ext_rw; ext_bimodal; topology; matrix;
    successors; rack; hier; oversub; collapse;
  ]

(* A step takes the run's machine, window and seed, then its own plan
   adjustments, then (under [quick]) its quick ones. *)
let step_params ~quick (g : params) e =
  let p =
    e.in_all
      { e.defaults with topology = g.topology; duration = g.duration; seed = g.seed }
  in
  if quick then e.quick p else p

let all ~quick =
  let name, doc =
    if quick then
      ( "quick",
        "Run every figure and table at the plan's quick parameters (2 ms \
         windows, fewer thread counts)." )
    else ("all", "Run every figure and table.")
  in
  let duration = if quick then 2_000_000 else base.duration in
  let knobs = [ Topology; Duration; Seed; Profile; Fastpath ] @ observed in
  let defaults = { base with duration } in
  let body = Plan quick in
  { name; doc; knobs; defaults; in_all = Fun.id; quick = Fun.id; body }

(* The [repro] subcommands, in help order. *)
let commands =
  [
    fig "fig2" [ "fig2" ] "LBench throughput (Figure 2).";
    fig "fig3" [ "fig3" ] "L2 coherence misses per CS (Figure 3).";
    fig "fig4" [ "fig4" ] "Low-contention throughput (Figure 4).";
    fig "fig5" [ "fig5"; "fig5-p99" ] "Fairness (Figure 5).";
    figs; fig6; table1; table2; ablation_handoff; ablation_hbo;
    ablation_policy; topology; hier; ext_blocking; ext_rw; ext_bimodal;
    matrix; successors; collapse; profile; predict; all ~quick:false;
    all ~quick:true;
  ]

(* --- One invocation ------------------------------------------------------ *)

(* One entry at its params: run its points in order, render, print each
   table with its companions (named [NAME-...]) and write their CSVs, then
   --profile. Its artifact entries are its LBench rows if it takes
   --emit-bench-json, then one per printed table row. A plan runs its
   steps so. *)
let rec step env e p =
  match e.body with
  | Plan quick ->
      List.concat_map (fun s -> step env s (step_params ~quick p s)) plan
  | Points (points, render) ->
      let rows = X.run_points (points env p) in
      let tables = render p rows in
      let rec show = function
        | [] -> ()
        | (name, _) :: _ as tables ->
            let companion (n, _) =
              n = name || String.starts_with ~prefix:(name ^ "-") n
            in
            let group, rest = List.partition companion tables in
            List.iter (fun (_, t) -> Report.print_series t) group;
            Option.iter (fun d -> List.iter (write_csv d) group) env.csv_dir;
            show rest
      in
      show tables;
      if env.profile && List.mem Profile e.knobs then print_top rows;
      List.filter_map
        (fun (_, r) ->
          if List.mem Emit e.knobs && Option.is_some r.X.result then
            Some r.X.entry
          else None)
        rows
      @ List.concat_map table_entries tables

let run ?csv_dir ?trace ?emit ?(profile = false) e p =
  let sink, finish = Numa_trace.Chrome.open_trace trace in
  let env = { sink; rollup = emit <> None; profile; csv_dir } in
  Printf.printf "topology=%s duration=%dms seed=%d\n%!" p.topology.Topology.name
    (p.duration / 1_000_000) p.seed;
  let entries = step env e p in
  finish ();
  Option.iter (Printf.printf "wrote %s\n%!") trace;
  Option.iter
    (fun path ->
      Bench_json.write path
        (Bench_json.make ~substrate:"sim" ~seed:p.seed entries);
      Printf.printf "wrote %s\n%!" path)
    emit
