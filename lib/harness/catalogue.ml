(* The experiment catalogue; see catalogue.mli. *)

open Numa_base
module X = Experiments
module LR = Lock_registry
module LI = Cohort.Lock_intf
module M = Numasim.Sim_mem
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

type output = Sweep of string * X.sweep | Table of string * X.table

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

type entry = {
  name : string;
  doc : string;
  knobs : knob list;
  defaults : params;
  in_all : params -> params;
  quick : params -> params;
  run : env -> params -> output list;
}

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
    ?(in_all = Fun.id) ?(quick = Fun.id) name doc run =
  { name; doc; knobs; defaults; in_all; quick; run }

let contending = N_threads "Contending threads."
let observed = [ Csv; Trace; Emit ]

(* --- Observation: trace sink, CSV, artifact ----------------------------- *)

let traced env = List.map (LR.with_trace env.sink)

(* Print each (name, table), then under --csv-dir write each to
   [name].csv; the tables are the outputs. *)
let show env tables =
  List.iter (fun (_, t) -> Report.print_series t) tables;
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (name, t) ->
          let path = Filename.concat dir (name ^ ".csv") in
          Report.write_file path (Report.csv_of_series t);
          Printf.printf "wrote %s\n%!" path)
        tables)
    env.csv_dir;
  List.map (fun (name, t) -> Table (name, t)) tables

(* A table of two-decimal cells, shown as [name]: a single-table entry's
   output. *)
let table env name ~title ~xlabel ~columns rows =
  show env
    [
      ( name,
        {
          X.t_title = title;
          t_xlabel = xlabel;
          t_columns = columns;
          t_rows = rows;
          t_fmt = Report.fmt_fixed2;
        } );
    ]

let artifact ~seed outputs =
  List.concat_map
    (function
      | Sweep (experiment, s) ->
          Array.to_list s.X.cells
          |> List.concat_map (fun col ->
                 Array.to_list col
                 |> List.map (Bench_json.entry_of_result ~experiment))
      | Table _ -> [])
    outputs
  |> Bench_json.make ~substrate:"sim" ~seed

(* --- Profile and prediction printers ------------------------------------ *)

let points (s : X.sweep) =
  List.concat
    (List.mapi
       (fun i name ->
         Array.to_list s.X.cells.(i)
         |> List.map (fun (r : Lbench.result) -> (name, r)))
       s.X.columns)

(* The engine's event ledger, per acquisition counted in the window. *)
let print_classes ~name (r : Lbench.result) =
  if r.Lbench.event_classes <> [] then begin
    let per n = float_of_int n /. float_of_int r.Lbench.iterations in
    Printf.printf
      "\n-- %s @ %d threads: engine events / acquisition by class --\n" name
      r.Lbench.n_threads;
    Printf.printf "  %-10s %10s %10s\n" "class" "inlined" "scheduled";
    let row cls i s =
      Printf.printf "  %-10s %10.3f %10.3f\n" cls (per i) (per s)
    in
    let ti, ts =
      List.fold_left
        (fun (ti, ts) (c : Runtime_intf.event_class) ->
          row c.ec_class c.ec_inlined c.ec_scheduled;
          (ti + c.ec_inlined, ts + c.ec_scheduled))
        (0, 0) r.Lbench.event_classes
    in
    row "total" ti ts;
    flush stdout
  end

let print_profile ~name (r : Lbench.result) =
  (match r.Lbench.profile with
  | None -> ()
  | Some p ->
      let acquires = r.Lbench.iterations in
      Printf.printf "\n-- %s @ %d threads: coherence attribution --\n" name
        r.Lbench.n_threads;
      Format.printf "%a" Numa_trace.Profile.pp p;
      Printf.printf
        "remote transfers / acquisition = %.3f   invalidations / release = \
         %.3f\n%!"
        (Numa_trace.Profile.remote_transfers_per_acquire p ~acquires)
        (Numa_trace.Profile.invalidations_per_release p ~releases:acquires));
  print_classes ~name r

(* [print ~name] at the sweep's highest thread count, one per lock. *)
let print_top print (s : X.sweep) =
  List.iteri
    (fun i name ->
      let col = s.X.cells.(i) in
      print ~name col.(Array.length col - 1))
    s.X.columns

let err_pct (r : Lbench.result) =
  match r.Lbench.predicted with
  | Some p -> 100. *. p.Numa_trace.Predict.err
  | None -> Float.nan

let print_predictions (s : X.sweep) =
  let ranked =
    List.stable_sort
      (fun (_, a) (_, b) ->
        (* |err| descending; nan (no prediction) sorts last. *)
        let key r =
          let e = Float.abs (err_pct r) in
          if Float.is_nan e then Float.neg_infinity else e
        in
        Float.compare (key b) (key a))
      (points s)
  in
  Printf.printf "\npredicted vs measured throughput (LBench), worst first:\n";
  Printf.printf "  %-12s %4s  %11s  %11s  %7s  %9s ns  %8s ns\n" "lock" "thr"
    "measured" "predicted" "err" "service" "handoff";
  List.iter
    (fun (name, (r : Lbench.result)) ->
      match r.Lbench.predicted with
      | None ->
          Printf.printf "  %-12s %4d  %11.3e  %11s  %7s\n" name
            r.Lbench.n_threads r.Lbench.throughput "-" "-"
      | Some p ->
          Printf.printf
            "  %-12s %4d  %11.3e  %11.3e  %+6.1f%%  %9.1f     %8.1f\n" name
            r.Lbench.n_threads r.Lbench.throughput
            p.Numa_trace.Predict.throughput (100. *. p.Numa_trace.Predict.err)
            p.Numa_trace.Predict.service_ns p.Numa_trace.Predict.handoff_ns)
    ranked

let gate = function
  | Ok msg -> Printf.printf "check OK: %s\n%!" msg
  | Error msg ->
      Printf.eprintf "check FAILED: %s\n%!" msg;
      exit 1

(* --- The experiments ---------------------------------------------------- *)

let lbench ?(locks = LR.microbench_locks) ?(profile = false) env p =
  X.microbench_sweep ~locks:(traced env locks) ~rollup:env.rollup ~profile
    ~topology:p.topology ~threads:p.threads ~duration:p.duration ~seed:p.seed
    ()

(* One LBench point of [e] under [cfg] at the entry's machine, thread
   count, window and seed. *)
let point ?profile p (e : LR.entry) cfg =
  Lbench.run ~name:e.name ?profile e.lock ~topology:p.topology ~cfg
    ~n_threads:p.n_threads ~duration:p.duration ~seed:p.seed

let tput (r : Lbench.result) = r.throughput
let mops (r : Lbench.result) = r.throughput /. 1e6
let find name = Option.get (LR.find name)
let find_all = List.map find

(* "0=a, 1=b, ...": the row legend of a table whose rows are indices. *)
let legend names =
  String.concat ", " (List.mapi (fun i n -> Printf.sprintf "%d=%s" i n) names)

let fig name which doc =
  entry name doc ~quick:fig_quick
    ~knobs:([ Topology; Threads; Duration; Seed; Profile ] @ observed)
    (fun env p ->
      let s = lbench ~profile:env.profile env p in
      let view csv title fmt f s = (csv, X.series ~title ~fmt f s) in
      let shown =
        List.concat_map
          (fun (f, tables) -> if List.mem f which then show env tables else [])
          [
            ( `F2,
              [ view "fig2"
                  "Figure 2: LBench throughput (critical+non-critical pairs \
                   / s)"
                  Report.fmt_si tput s ] );
            ( `F3,
              [ view "fig3"
                  "Figure 3: L2 coherence misses per critical section (lower \
                   is better)"
                  Report.fmt_fixed2 (fun r -> r.Lbench.misses_per_cs) s ] );
            ( `F4,
              [ view "fig4"
                  "Figure 4: LBench throughput at low contention (1-16 \
                   threads)"
                  Report.fmt_si tput (X.low_contention s) ] );
            ( `F5,
              [ view "fig5"
                  "Figure 5: fairness — stddev of per-thread throughput (% of \
                   mean, lower is fairer)"
                  Report.fmt_fixed1 (fun r -> r.Lbench.fairness_stddev_pct) s;
                view "fig5-p99"
                  "Figure 5 (companion): p99 acquire latency (ns) — the \
                   per-acquisition face of unfairness"
                  Report.fmt_si (fun r -> r.Lbench.acquire_p99) s ] );
          ]
      in
      if env.profile then print_top print_profile s;
      shown @ [ Sweep ("lbench", s) ])

let figs = fig "figs" [ `F2; `F3; `F4; `F5 ] "Figures 2-5 from one sweep."

let fig6 =
  entry "fig6" "Abortable lock throughput (Figure 6)." ~quick:fig_quick
    ~knobs:([ Topology; Threads; Duration; Seed; Patience ] @ observed)
    (fun env p ->
      let locks =
        List.map (LR.with_trace_abortable env.sink) LR.abortable_locks
      in
      let cfg = X.cfg_for p.topology p.threads in
      let s =
        X.grid ~threads:p.threads
          ~name:(fun (e : LR.abortable_entry) -> e.a_name)
          locks
          (fun e ->
            let cfg = e.a_tweak cfg in
            fun n ->
              Lbench.run_abortable ~name:e.a_name ~rollup:env.rollup e.a_lock
                ~topology:p.topology ~cfg ~n_threads:n ~duration:p.duration
                ~seed:p.seed ~patience:p.patience)
      in
      show env
        [
          ( "fig6",
            X.series ~title:"Figure 6: abortable lock throughput (pairs / s)"
              ~fmt:Report.fmt_si tput s );
          ( "fig6-abort-rate",
            X.series ~title:"Figure 6 (companion): abort rate (%)"
              ~fmt:Report.fmt_fixed2
              (fun r -> 100. *. r.Lbench.abort_rate)
              s );
        ]
      @ [ Sweep ("lbench-abortable", s) ])

let table1 =
  entry "table1" "memcached-style KV store speedups (Table 1)."
    ~knobs:[ Topology; Threads; Duration; Seed; Mix; Csv; Trace ]
    ~defaults:{ base with threads = app_threads } ~quick:app_quick
    (fun env p ->
      List.concat_map
        (fun mix ->
          show env
            [
              ( Printf.sprintf "table1_%.0fpct_sets" (mix.W.set_ratio *. 100.),
                X.table1 ~locks:(traced env LR.app_locks) ~topology:p.topology
                  ~threads:p.threads ~duration:p.duration ~seed:p.seed ~mix ()
              );
            ])
        p.mixes)

let table2 =
  entry "table2" "Allocator stress, malloc-free pairs/ms (Table 2)."
    ~knobs:[ Topology; Threads; Duration; Seed; Csv; Trace ]
    ~defaults:{ base with threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 255 ] }
    ~quick:(fun p -> { p with threads = [ 1; 8; 64; 255 ] })
    (fun env p ->
      show env
        [
          ( "table2",
            X.table2 ~locks:(traced env LR.app_locks) ~topology:p.topology
              ~threads:p.threads ~duration:p.duration ~seed:p.seed () );
        ])

(* The knobs of the single-table experiments at one contending-thread
   count. *)
let at_one_count = [ Topology; contending; Duration; Seed; Csv ]

let ablation_handoff =
  entry "ablation-handoff" "Sweep of the may-pass-local bound (section 3.7)."
    ~knobs:at_one_count
    (fun env p ->
      let cfg = X.cfg_for p.topology [ p.n_threads ] in
      let locks = [ "C-BO-MCS"; "C-TKT-MCS" ] in
      table env "ablation-handoff"
        ~title:
          (Printf.sprintf
             "Ablation: may-pass-local bound at %d threads (throughput Mops/s \
              and fairness stddev%%)"
             p.n_threads)
        ~xlabel:"bound"
        ~columns:
          (List.concat_map (fun n -> [ n ^ " tput"; n ^ " unfair%" ]) locks)
        (List.map
           (fun bound ->
             ( bound,
               Array.of_list
                 (List.concat_map
                    (fun name ->
                      let e = find name in
                      let r =
                        point p e
                          { (e.tweak cfg) with LI.max_local_handoffs = bound }
                      in
                      [ mops r; r.Lbench.fairness_stddev_pct ])
                    locks) ))
           [ 0; 1; 4; 16; 64; 256; 100_000 ]))

(* HBO parameter instability (section 4.2): the microbenchmark-tuned and
   application-tuned presets, each on LBench and on the write-heavy KV
   workload. *)
let ablation_hbo =
  entry "ablation-hbo" "HBO backoff-parameter instability across workloads."
    (fun env p ->
      let presets =
        [ ("HBO micro-tuned", LR.hbo_micro); ("HBO app-tuned", LR.hbo_app) ]
      in
      let hbo = find "HBO" in
      let store = X.kv_store () in
      table env "ablation-hbo"
        ~title:
          "Ablation: HBO backoff-parameter instability (Mops/s; columns: \
           preset x workload)"
        ~xlabel:"threads"
        ~columns:
          (List.concat_map
             (fun (p, _) -> [ p ^ " | LBench"; p ^ " | KV wr-heavy" ])
             presets)
        (List.map
           (fun n ->
             ( n,
               Array.of_list
                 (List.concat_map
                    (fun (_, tweak) ->
                      let lb =
                        point { p with n_threads = n } hbo
                          (tweak (X.cfg_for p.topology [ n ]))
                      in
                      let kv =
                        X.kv_ops_per_sec store { hbo with tweak }
                          ~topology:p.topology ~n_threads:n
                          ~duration:p.duration ~seed:p.seed ~mix:W.write_heavy
                      in
                      [ mops lb; kv /. 1e6 ])
                    presets) ))
           [ 32; 128 ]))

(* The paper's counted policy (bound 64) vs the time-budget policy its
   section 2.1 suggests, on a fair-global cohort lock so fairness
   reflects the policy rather than global-lock arbitration. *)
let ablation_policy =
  entry "ablation-policy"
    "Counted vs time-budget may-pass-local policies (section 2.1)."
    ~knobs:at_one_count
    (fun env p ->
      let cfg = X.cfg_for p.topology [ p.n_threads ] in
      let policies =
        [
          ("counted 64", { cfg with LI.handoff_policy = LI.Counted });
          ( "counted 16",
            { cfg with LI.handoff_policy = LI.Counted; max_local_handoffs = 16 }
          );
          ("timed 5us", { cfg with LI.handoff_policy = LI.Timed 5_000 });
          ("timed 50us", { cfg with LI.handoff_policy = LI.Timed 50_000 });
          ( "count|time 10us",
            { cfg with LI.handoff_policy = LI.Counted_or_timed 10_000 } );
          ("unbounded", { cfg with LI.handoff_policy = LI.Unbounded });
        ]
      in
      let e = find "C-TKT-MCS" in
      table env "ablation-policy"
        ~title:
          (Printf.sprintf
             "Ablation: may-pass-local policy on C-TKT-MCS at %d threads \
              (rows: %s)"
             p.n_threads
             (legend (List.map fst policies)))
        ~xlabel:"policy#"
        ~columns:[ "Mops/s"; "unfair%"; "migrations" ]
        (List.mapi
           (fun i (_, cfg) ->
             let r = point p e cfg in
             ( i,
               [|
                 mops r;
                 r.Lbench.fairness_stddev_pct;
                 float_of_int r.Lbench.migrations;
               |] ))
           policies))

module Blk = Cohort.Park_lock.Make (Numasim.Sim_mem)

(* The blocking cohort lock C-BLK-BLK against the plain blocking mutex
   and C-BO-MCS on the write-heavy KV workload. *)
let ext_blocking =
  entry "ext-blocking" "Extension: the blocking cohort lock C-BLK-BLK."
    ~knobs:[ Topology; Threads; Duration; Seed; Csv ]
    ~defaults:{ base with threads = app_threads } ~quick:app_quick
    (fun env p ->
      let locks =
        [
          find "pthread";
          LR.plain "BLK" (module Blk.Plain : LI.LOCK);
          LR.plain "C-BLK-BLK" LR.Table.c_blk_blk;
          find "C-BO-MCS";
        ]
      in
      show env
        [
          ( "ext-blocking",
            {
              (X.table1 ~locks ~topology:p.topology ~threads:p.threads
                 ~duration:p.duration ~seed:p.seed ~mix:W.write_heavy ())
              with
              X.t_title =
                "Extension: blocking cohort lock (C-BLK-BLK) on the \
                 write-heavy KV workload (speedup over pthread @ 1 thread)";
            } );
        ])

module Rw = (val LR.Table.c_rw_wp)
module RwMutex = (val LR.Table.get ~global:"BO" ~local:"MCS")

(* Threads share a structure under either a plain cohort mutex or the RW
   cohort lock; one loop for both: a thread's [lock]/[unlock] take
   [write], which the plain mutex ignores. Returns operations / s. *)
let rw_run ~use_rw ~topology ~n_threads ~write_ratio ~duration ~seed =
  let cfg = X.cfg_for topology [ n_threads ] in
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
    (Numasim.Engine.run ~topology ~n_threads (fun ~tid ~cluster ->
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

let ext_rw =
  entry "ext-rw" "Extension: the NUMA-aware reader-writer lock C-RW-WP."
    ~knobs:at_one_count
    (fun env p ->
      let run use_rw write_ratio =
        rw_run ~use_rw ~topology:p.topology ~n_threads:p.n_threads ~write_ratio
          ~duration:p.duration ~seed:p.seed
      in
      table env "ext-rw"
        ~title:
          (Printf.sprintf
             "Extension: NUMA-aware reader-writer lock (C-RW-WP) vs cohort \
              mutex at %d threads"
             p.n_threads)
        ~xlabel:"write%"
        ~columns:[ "mutex Mops/s"; "C-RW-WP Mops/s"; "speedup" ]
        (List.map
           (fun ratio ->
             let mutex = run false ratio in
             let rw = run true ratio in
             ( int_of_float (ratio *. 100.),
               [| mutex /. 1e6; rw /. 1e6; rw /. mutex |] ))
           [ 0.01; 0.1; 0.5; 0.9 ]))

(* The paper motivates write-heavy testing with servers that "exhibit
   bi-modal behavior, alternating between write-heavy and read-heavy
   phases" (section 4.2). Cohort locks need no retuning across phases;
   HBO's fixed backoff parameters cannot suit both. *)
let ext_bimodal =
  entry "ext-bimodal" "Extension: bi-modal (phase-alternating) KV workload."
    ~knobs:[ Topology; N_threads "Server threads."; Duration; Seed; Csv ]
    ~defaults:{ base with n_threads = 32 }
    (fun env p ->
      let locks =
        List.filter
          (fun (e : LR.entry) ->
            List.mem e.name
              [ "pthread"; "MCS"; "HBO"; "C-BO-MCS"; "C-TKT-MCS" ])
          LR.app_locks
      in
      let store = X.kv_store () in
      let run e =
        X.kv_run store
          ~make_workload:(fun ~tid ->
            W.make_bimodal ~seed:(p.seed + (tid * 131) + 7) ~n_keys:X.kv_keys
              ~period:500 ~mix_a:W.read_heavy ~mix_b:W.write_heavy)
          e ~topology:p.topology ~n_threads:p.n_threads ~duration:p.duration
          ~seed:p.seed
      in
      let base = run (find "pthread") in
      table env "ext-bimodal"
        ~title:
          (Printf.sprintf
             "Extension: bi-modal workload (alternating read-/write-heavy \
              phases) at %d threads (speedup over pthread)"
             p.n_threads)
        ~xlabel:"threads"
        ~columns:(names locks)
        [
          ( p.n_threads,
            Array.of_list (List.map (fun e -> run e /. base) locks) );
        ])

(* MCS vs C-BO-MCS on each machine, at the entry's thread count capped to
   the machine's contexts. *)
let cohort_gain name ~title ~topologies env p =
  table env name
    ~title:
      (Printf.sprintf "%s at %d threads (rows: %s)" title p.n_threads
         (legend (List.map fst topologies)))
    ~xlabel:"machine#"
    ~columns:[ "MCS Mops/s"; "C-BO-MCS Mops/s"; "cohort gain" ]
    (List.mapi
       (fun i (_, topology) ->
         let n = min p.n_threads (Topology.total_threads topology) in
         let p = { p with topology; n_threads = n } in
         let run (e : LR.entry) =
           mops (point p e (e.tweak (X.cfg_for topology [ n ])))
         in
         let m = run (find "MCS") and c = run (find "C-BO-MCS") in
         (i, [| m; c; c /. m |]))
       topologies)

(* These two fix their machines; the banner shows the default topology.
   The cohort advantage should grow with the machine's NUMA factor and
   vanish on a UMA machine (negative control). *)
let topology =
  entry "topology"
    "Cohort gain across machine shapes (UMA control, 2/4/8 sockets)."
    ~knobs:[ contending; Duration; Seed; Csv ]
    (cohort_gain "topology" ~title:"Topology sensitivity"
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
         ])

(* Same shape (4 clusters x 64), different cost structure: t5440 pays one
   flat tier for every cross-cluster transfer, the rack preset pays a
   cheap socket tier or an expensive rack tier depending on how far the
   lock migrates. Cohorting should widen its lead when migration can
   cross a rack. *)
let hier =
  entry "hier"
    "Flat T5440 vs the rack preset (two racks of two sockets, three latency \
     tiers): the cohort gain under deeper distance structure."
    ~knobs:[ contending; Duration; Seed; Csv ]
    ~defaults:{ base with topology = Topology.rack }
    (cohort_gain "hier"
       ~title:
         "Extension: hierarchical machine (flat t5440 vs 2-rack x 2-socket)"
       ~topologies:[ ("t5440", Topology.t5440); ("rack", Topology.rack) ])

(* The paper's generality claim, measured: rows are the global locks in
   table order, columns the local locks. *)
let matrix =
  entry "matrix"
    "LBench throughput of all 16 global x local cohort compositions."
    ~knobs:at_one_count
    (fun env p ->
      let cfg = X.cfg_for p.topology [ p.n_threads ] in
      let globals = List.map fst LR.Table.globals in
      let locals = List.map fst LR.Table.locals in
      table env "matrix"
        ~title:
          (Printf.sprintf
             "Composition matrix at %d threads (Mops/s; rows = global lock \
              %s, columns = local lock)"
             p.n_threads
             (String.concat "/" globals))
        ~xlabel:"global#" ~columns:locals
        (List.mapi
           (fun gi global ->
             ( gi,
               Array.of_list
                 (List.map
                    (fun local ->
                      mops
                        (Lbench.run (LR.Table.get ~global ~local)
                           ~topology:p.topology ~cfg ~n_threads:p.n_threads
                           ~duration:p.duration ~seed:p.seed))
                    locals) ))
           globals))

(* The first paper-vs-successor table: the 2012 cohort flagship against
   two later designs — CNA (Dice & Kogan, arXiv 1810.05600), which gets
   NUMA-aware handoff out of a single MCS-compatible lock word, and the
   partition ticket lock, which buys waiter-local spinning with a
   per-thread slot array. Throughput plus the two profiler metrics the
   competing claims rest on: remote transfers per acquisition (NUMA
   locality) and distinct lock-metadata cache lines touched (memory
   footprint — CNA's headline advantage, PTL's headline cost). The
   profile is stats-only, so schedules match the unprofiled sweeps. *)
let successors =
  entry "successors"
    "Paper-vs-successor table: MCS and C-BO-MCS against CNA (compact \
     NUMA-aware lock) and the partition ticket lock \u{2014} throughput, \
     remote transfers per acquisition, and lock-metadata cache-line \
     footprint."
    ~knobs:at_one_count
    (fun env p ->
      let locks = [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ] in
      let cfg = X.cfg_for p.topology [ p.n_threads ] in
      table env "successors"
        ~title:
          (Printf.sprintf
             "Successors: cohort flagship vs CNA and partition ticket at %d \
              threads (rows: %s)"
             p.n_threads (legend locks))
        ~xlabel:"lock#"
        ~columns:[ "Mops/s"; "xfers/acq"; "lock lines" ]
        (List.mapi
           (fun i name ->
             let e = find name in
             let r = point ~profile:true p e (e.tweak cfg) in
             let pr = Option.get r.Lbench.profile in
             ( i,
               [|
                 mops r;
                 Numa_trace.Profile.remote_transfers_per_acquire pr
                   ~acquires:r.Lbench.iterations;
                 float_of_int (Numa_trace.Profile.lock_lines pr);
               |] ))
           locks))

(* The full LBench line-up on the hierarchical rack preset (two racks x
   two sockets, three latency tiers); only the plan runs it. *)
let rack =
  entry "rack" "LBench throughput on the rack preset." ~quick:fig_quick
    ~in_all:(fun p -> { p with topology = Topology.rack })
    (fun env p ->
      let s = lbench env p in
      show env
        [
          ( "rack",
            X.series
              ~title:
                "Extension: LBench throughput on the rack preset (2 racks x 2 \
                 sockets, pairs / s)"
              ~fmt:Report.fmt_si tput s );
        ]
      @ [ Sweep ("lbench-rack", s) ])

(* Oversubscription: 2048 logical threads wrap onto the T5440's 256
   contexts (8 fibers per hardware thread); short window, queue-lock
   subset \u{2014} the point is that the sweep completes and the cohort
   ordering survives heavy multiplexing. Only the plan runs it. *)
let oversub =
  entry "oversub" "Oversubscribed LBench on the T5440."
    ~defaults:{ base with threads = [ 512; 2048 ] }
    ~in_all:(fun p ->
      { p with topology = Topology.t5440; duration = 1_000_000 })
    ~quick:(fun p -> { p with duration = 400_000 })
    (fun env p ->
      let locks =
        List.filter
          (fun (e : LR.entry) ->
            List.mem e.LR.name [ "MCS"; "C-BO-MCS"; "C-TKT-MCS"; "CNA" ])
          LR.microbench_locks
      in
      let s = lbench ~locks env p in
      show env
        [
          ( "oversub",
            X.series
              ~title:
                "Extension: oversubscribed LBench (logical threads wrapped \
                 onto the T5440's 256 contexts, pairs / s)"
              ~fmt:Report.fmt_si tput s );
        ]
      @ [ Sweep ("lbench-oversub", s) ])

(* Saturation collapse: thread counts from capacity to far past it, under
   the explicit preemption model (Experiments.collapse_run). Plain
   BO/TKT/MCS collapse once logical threads exceed contexts, GCR-wrapped
   locks hold. The plan stops at 4096 threads and 1 ms windows: the 8192
   point alone costs minutes of host time. *)
let collapse =
  entry "collapse"
    "Saturation collapse under extreme oversubscription: plain BO/TKT/MCS \
     against their GCR concurrency-restricted wrappers and the cohort \
     reference, from in-capacity thread counts to thousands of logical \
     fibers. The post-window drain of blocked acquires runs beyond the \
     measurement window."
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
      let s =
        X.collapse_sweep ~locks:(traced env (find_all p.locks))
          ~topology:p.topology ~threads:p.threads ~duration:p.duration
          ~seed:p.seed ()
      in
      let shown =
        show env
          [
            ( "collapse",
              X.series
                ~title:
                  (Printf.sprintf
                     "Collapse: throughput under oversubscription on %s (%d \
                      contexts; pairs / s)"
                     p.topology.Topology.name
                     (Topology.total_threads p.topology))
                ~fmt:Report.fmt_si tput s );
          ]
      in
      if env.profile then print_top print_classes s;
      shown @ [ Sweep ("collapse", s) ])

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
    (fun _ p ->
      let s =
        X.microbench_sweep ~locks:(find_all p.locks) ~profile:true
          ~topology:p.topology ~threads:[ p.n_threads ] ~duration:p.duration
          ~seed:p.seed ()
      in
      let results = points s in
      List.iter (fun (name, r) -> print_profile ~name r) results;
      let per_acq (r : Lbench.result) =
        match r.Lbench.profile with
        | Some pr ->
            Numa_trace.Profile.remote_transfers_per_acquire pr
              ~acquires:r.Lbench.iterations
        | None -> Float.nan
      in
      let lines (r : Lbench.result) =
        Option.fold ~none:0 ~some:Numa_trace.Profile.lock_lines r.Lbench.profile
      in
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
      [ Sweep ("lbench", s) ])

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
    (fun _ p ->
      let s =
        X.microbench_sweep ~locks:(find_all p.locks) ~rollup:true
          ~topology:p.topology ~threads:p.threads ~duration:p.duration
          ~seed:p.seed ()
      in
      print_predictions s;
      if p.check then begin
        let pts = points s in
        let err lock n =
          err_pct
            (snd
               (List.find
                  (fun (name, (r : Lbench.result)) ->
                    name = lock && r.Lbench.n_threads = n)
                  pts))
        in
        gate
          (Gates.prediction_claim
             ~err_pcts:
               (List.concat_map
                  (fun lock -> List.map (err lock) Gates.pred_core_threads)
                  Gates.pred_core_locks))
      end;
      [ Sweep ("lbench", s) ])

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
  entry name doc
    ~knobs:([ Topology; Duration; Seed; Profile; Fastpath ] @ observed)
    ~defaults:{ base with duration = (if quick then 2_000_000 else base.duration) }
    (fun env g ->
      List.concat_map (fun e -> e.run env (step_params ~quick g e)) plan)

(* The [repro] subcommands, in help order. *)
let commands =
  [
    fig "fig2" [ `F2 ] "LBench throughput (Figure 2).";
    fig "fig3" [ `F3 ] "L2 coherence misses per CS (Figure 3).";
    fig "fig4" [ `F4 ] "Low-contention throughput (Figure 4).";
    fig "fig5" [ `F5 ] "Fairness (Figure 5).";
    figs; fig6; table1; table2; ablation_handoff; ablation_hbo;
    ablation_policy; topology; hier; ext_blocking; ext_rw; ext_bimodal;
    matrix; successors; collapse; profile; predict; all ~quick:false;
    all ~quick:true;
  ]

(* --- One invocation ------------------------------------------------------ *)

(* Banner, the entry's run, then the trace file and the artifact. *)
let run ?csv_dir ?trace ?emit ?(profile = false) e p =
  let sink, finish = Numa_trace.Chrome.open_trace trace in
  let env = { sink; rollup = emit <> None; profile; csv_dir } in
  Printf.printf "topology=%s duration=%dms seed=%d\n%!" p.topology.Topology.name
    (p.duration / 1_000_000) p.seed;
  let outputs = e.run env p in
  finish ();
  Option.iter (Printf.printf "wrote %s\n%!") trace;
  Option.iter
    (fun path ->
      Bench_json.write path (artifact ~seed:p.seed outputs);
      Printf.printf "wrote %s\n%!" path)
    emit
