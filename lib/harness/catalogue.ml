(* The experiment catalogue; see catalogue.mli. *)

open Numa_base
module X = Experiments
module LR = Lock_registry
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

type output = Sweep of string * X.sweep | Table of X.table

type knob =
  | Topology
  | Threads
  | N_threads of string
  | Duration
  | Seed
  | Patience
  | Mix
  | Locks of string * string list
  | Check of string
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

let entry ?(knobs = [ Topology; Duration; Seed ]) ?(defaults = base)
    ?(in_all = Fun.id) ?(quick = Fun.id) name doc run =
  { name; doc; knobs; defaults; in_all; quick; run }

let contending = N_threads "Contending threads."
let observed = [ Csv; Trace; Emit ]

(* --- Observation: trace sink, CSV, artifact ----------------------------- *)

let traced env = List.map (LR.with_trace env.sink)

let csv env name ~columns ~rows =
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      Report.write_file path
        (Report.csv_of_series ~x_label:"threads" ~columns ~rows);
      Printf.printf "wrote %s\n%!" path)
    env.csv_dir

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

let table t =
  X.print_table t;
  [ Table t ]

(* --- Profile and prediction printers ------------------------------------ *)

let points (s : X.sweep) =
  List.concat
    (List.mapi
       (fun i name ->
         Array.to_list s.X.cells.(i)
         |> List.map (fun (r : Lbench.result) -> (name, r)))
       s.X.columns)

let print_profile ~name (r : Lbench.result) =
  match r.Lbench.profile with
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
        (Numa_trace.Profile.invalidations_per_release p ~releases:acquires)

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

let fig name which doc =
  entry name doc ~quick:fig_quick
    ~knobs:([ Topology; Threads; Duration; Seed; Profile ] @ observed)
    (fun env p ->
      let s = lbench ~profile:env.profile env p in
      let has f = List.mem f which in
      if has `F2 then begin
        X.print_fig2 s;
        csv env "fig2" ~columns:s.X.columns ~rows:(X.throughput_rows s)
      end;
      if has `F3 then begin
        X.print_fig3 s;
        csv env "fig3" ~columns:s.X.columns ~rows:(X.misses_rows s)
      end;
      if has `F4 then X.print_fig4 s;
      if has `F5 then begin
        X.print_fig5 s;
        X.print_fig5_latency s;
        csv env "fig5" ~columns:s.X.columns ~rows:(X.fairness_rows s)
      end;
      (* Attribution at the sweep's highest thread count, one per lock. *)
      if env.profile then
        List.iteri
          (fun i name ->
            let col = s.X.cells.(i) in
            print_profile ~name col.(Array.length col - 1))
          s.X.columns;
      [ Sweep ("lbench", s) ])

let figs = fig "figs" [ `F2; `F3; `F4; `F5 ] "Figures 2-5 from one sweep."

let fig6 =
  entry "fig6" "Abortable lock throughput (Figure 6)." ~quick:fig_quick
    ~knobs:([ Topology; Threads; Duration; Seed; Patience ] @ observed)
    (fun env p ->
      let s =
        X.abortable_sweep
          ~locks:(List.map (LR.with_trace_abortable env.sink) LR.abortable_locks)
          ~rollup:env.rollup ~topology:p.topology ~threads:p.threads
          ~duration:p.duration ~seed:p.seed ~patience:p.patience ()
      in
      X.print_fig6 s;
      csv env "fig6" ~columns:s.X.columns ~rows:(X.throughput_rows s);
      [ Sweep ("lbench-abortable", s) ])

let table1 =
  entry "table1" "memcached-style KV store speedups (Table 1)."
    ~knobs:[ Topology; Threads; Duration; Seed; Mix; Csv; Trace ]
    ~defaults:{ base with threads = app_threads } ~quick:app_quick
    (fun env p ->
      List.concat_map
        (fun mix ->
          let t =
            X.table1 ~locks:(traced env LR.app_locks) ~topology:p.topology
              ~threads:p.threads ~duration:p.duration ~seed:p.seed ~mix ()
          in
          let out = table t in
          csv env
            (Printf.sprintf "table1_%.0fpct_sets" (mix.W.set_ratio *. 100.))
            ~columns:t.X.t_columns ~rows:t.X.t_rows;
          out)
        p.mixes)

let table2 =
  entry "table2" "Allocator stress, malloc-free pairs/ms (Table 2)."
    ~knobs:[ Topology; Threads; Duration; Seed; Csv; Trace ]
    ~defaults:{ base with threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 255 ] }
    ~quick:(fun p -> { p with threads = [ 1; 8; 64; 255 ] })
    (fun env p ->
      let t =
        X.table2 ~locks:(traced env LR.app_locks) ~topology:p.topology
          ~threads:p.threads ~duration:p.duration ~seed:p.seed ()
      in
      let out = table t in
      csv env "table2" ~columns:t.X.t_columns ~rows:t.X.t_rows;
      out)

(* The single-table experiments that take a contending-thread count. *)
let at_n name doc ?(knobs = [ Topology; contending; Duration; Seed ])
    ?(defaults = base) f =
  entry name doc ~knobs ~defaults (fun _ p ->
      table
        (f ~topology:p.topology ~n_threads:p.n_threads ~duration:p.duration
           ~seed:p.seed ()))

let ablation_handoff =
  at_n "ablation-handoff" "Sweep of the may-pass-local bound (section 3.7)."
    X.ablation_handoff_bound

let ablation_hbo =
  entry "ablation-hbo" "HBO backoff-parameter instability across workloads."
    (fun _ p ->
      table
        (X.ablation_hbo_tuning ~topology:p.topology ~duration:p.duration
           ~seed:p.seed ()))

let ablation_policy =
  at_n "ablation-policy"
    "Counted vs time-budget may-pass-local policies (section 2.1)."
    X.ablation_policy

let ext_blocking =
  entry "ext-blocking" "Extension: the blocking cohort lock C-BLK-BLK."
    ~knobs:[ Topology; Threads; Duration; Seed ]
    ~defaults:{ base with threads = app_threads } ~quick:app_quick
    (fun _ p ->
      table
        (X.extension_blocking ~topology:p.topology ~threads:p.threads
           ~duration:p.duration ~seed:p.seed ()))

let ext_rw =
  at_n "ext-rw" "Extension: the NUMA-aware reader-writer lock C-RW-WP."
    X.extension_rw

let ext_bimodal =
  at_n "ext-bimodal" "Extension: bi-modal (phase-alternating) KV workload."
    ~knobs:[ Topology; N_threads "Server threads."; Duration; Seed ]
    ~defaults:{ base with n_threads = 32 } X.extension_bimodal

(* These two fix their machines; the banner shows the default topology. *)
let topology =
  at_n "topology"
    "Cohort gain across machine shapes (UMA control, 2/4/8 sockets)."
    ~knobs:[ contending; Duration; Seed ]
    (fun ~topology:_ -> X.topology_sensitivity)

let hier =
  at_n "hier"
    "Flat T5440 vs the rack preset (two racks of two sockets, three latency \
     tiers): the cohort gain under deeper distance structure."
    ~knobs:[ contending; Duration; Seed ]
    ~defaults:{ base with topology = Topology.rack }
    (fun ~topology:_ -> X.hierarchy_comparison)

let matrix =
  at_n "matrix"
    "LBench throughput of all 16 global x local cohort compositions."
    X.composition_matrix

let successors =
  at_n "successors"
    "Paper-vs-successor table: MCS and C-BO-MCS against CNA (compact \
     NUMA-aware lock) and the partition ticket lock \u{2014} throughput, \
     remote transfers per acquisition, and lock-metadata cache-line \
     footprint."
    X.successor_comparison

(* The LBench throughput curves of a sweep, under [title]. *)
let print_curves title (s : X.sweep) =
  Report.print_series ~title ~x_label:"threads" ~columns:s.X.columns
    ~rows:(X.throughput_rows s) ~fmt:Report.fmt_si ()

(* The full LBench line-up on the hierarchical rack preset (two racks x
   two sockets, three latency tiers); only the plan runs it. *)
let rack =
  entry "rack" "LBench throughput on the rack preset." ~quick:fig_quick
    ~in_all:(fun p -> { p with topology = Topology.rack })
    (fun env p ->
      let s = lbench env p in
      print_curves
        "Extension: LBench throughput on the rack preset (2 racks x 2 \
         sockets, pairs / s)"
        s;
      [ Sweep ("lbench-rack", s) ])

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
      print_curves
        "Extension: oversubscribed LBench (logical threads wrapped onto the \
         T5440's 256 contexts, pairs / s)"
        s;
      [ Sweep ("lbench-oversub", s) ])

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
         Threads; Duration; Seed;
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
      let locks =
        List.map
          (fun n -> List.find (fun (e : LR.entry) -> e.LR.name = n) LR.collapse_locks)
          p.locks
      in
      let s =
        X.collapse_sweep ~locks:(traced env locks) ~topology:p.topology
          ~threads:p.threads ~duration:p.duration ~seed:p.seed ()
      in
      X.print_collapse ~topology:p.topology s;
      csv env "collapse" ~columns:s.X.columns ~rows:(X.throughput_rows s);
      [ Sweep ("collapse", s) ])

let registry_locks doc = Locks (doc, names LR.all_locks)
let find_all = List.map (fun n -> Option.get (LR.find n))

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
          "Exit non-zero unless C-BO-MCS shows strictly fewer remote \
           transfers per acquisition than MCS, and CNA touches fewer \
           distinct lock-metadata cache lines than C-BO-MCS (the \
           paper-claim gate used by scripts/ci.sh).";
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
        let get name =
          match List.assoc_opt name results with
          | Some r -> r
          | None ->
              Printf.eprintf
                "profile --check: lock %S not in the run (need MCS, C-BO-MCS \
                 and CNA)\n\
                 %!"
                name;
              exit 2
        in
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
          "Exit non-zero unless the median absolute prediction error on the \
           core curves (MCS, C-BO-MCS, CNA at the pinned thread counts) \
           stays within the stated band (the prediction gate used by \
           scripts/ci.sh).";
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
          match
            List.find_opt
              (fun (name, (r : Lbench.result)) ->
                name = lock && r.Lbench.n_threads = n)
              pts
          with
          | Some (_, r) -> err_pct r
          | None ->
              Printf.eprintf
                "predict --check: core point %s @ %d threads not in the run \
                 (need %s at threads %s)\n\
                 %!"
                lock n
                (String.concat ", " Gates.pred_core_locks)
                (String.concat "," (List.map string_of_int Gates.pred_core_threads));
              exit 2
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
  Printf.printf "%s\n%!"
    (X.params_summary ~topology:p.topology ~duration:p.duration ~seed:p.seed);
  let outputs = e.run env p in
  finish ();
  Option.iter (Printf.printf "wrote %s\n%!") trace;
  Option.iter
    (fun path ->
      Bench_json.write path (artifact ~seed:p.seed outputs);
      Printf.printf "wrote %s\n%!" path)
    emit
