(* Command-line driver regenerating every figure and table of the paper.

   Examples:
     repro figs                     # figures 2-5 from one sweep
     repro fig6 --patience-us 300
     repro table1 --mix write
     repro table2 --threads 1,2,4,8,16,32,64,128,255
     repro all --duration-ms 20 --csv-dir out/ *)

open Cmdliner
module X = Harness.Experiments
module R = Harness.Report
module LR = Harness.Lock_registry
module W = Apps.Kv_workload

let topology_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Numa_base.Topology.of_spec s)
  in
  let print ppf t = Format.fprintf ppf "%s" t.Numa_base.Topology.name in
  Arg.conv (parse, print)

let topology_arg =
  Arg.(
    value
    & opt topology_conv Numa_base.Topology.t5440
    & info [ "topology" ] ~docv:"SPEC"
        ~doc:
          "Machine model: t5440|small|rack, CxT for a flat machine (e.g. \
           4x64), or RxSxT for a rack-of-sockets hierarchy (e.g. 2x2x64). \
           Thread counts beyond its capacity run oversubscribed.")

(* Thread counts and windows must be positive: 0 threads or an empty
   list would reach [Engine.run] (or deadlock Table 1's client fibers),
   and a window <= 0 measures nothing. Reject them as usage errors. *)
let positive what s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Ok n
  | _ -> Error (`Msg (Printf.sprintf "%s %S is not a positive integer" what s))

let threads_conv =
  let parse s =
    match
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    with
    | [] -> Error (`Msg (Printf.sprintf "empty thread-count list %S" s))
    | items ->
        let rec all = function
          | [] -> Ok []
          | x :: rest ->
              Result.bind (positive "thread count" x) (fun n ->
                  Result.map (List.cons n) (all rest))
        in
        all items
  in
  let print ppf l =
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

let duration_conv =
  Arg.conv (positive "duration", Format.pp_print_int)

let default_threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 192; 256 ]
let default_app_threads = [ 1; 4; 8; 16; 32; 64; 96; 128 ]

let threads_arg ~default =
  Arg.(
    value
    & opt threads_conv default
    & info [ "threads" ] ~docv:"N,N,..." ~doc:"Thread counts to sweep.")

let duration_arg =
  Arg.(
    value & opt duration_conv 10
    & info [ "duration-ms" ] ~docv:"MS"
        ~doc:"Simulated measurement window per data point, in milliseconds.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let patience_arg =
  Arg.(
    value & opt int 2000
    & info [ "patience-us" ] ~docv:"US"
        ~doc:"Abortable-lock patience in microseconds (Figure 6).")

let csv_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write CSV files into $(docv).")

let mix_arg =
  let mix_conv =
    Arg.enum
      [ ("read", [ W.read_heavy ]); ("mixed", [ W.mixed ]);
        ("write", [ W.write_heavy ]);
        ("all", [ W.read_heavy; W.mixed; W.write_heavy ]) ]
  in
  Arg.(
    value & opt mix_conv [ W.read_heavy; W.mixed; W.write_heavy ]
    & info [ "mix" ] ~docv:"MIX" ~doc:"Table 1 get/set mix: read|mixed|write|all.")

(* --- Observability: --trace / --emit-bench-json ------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a lock-event trace of the runs to $(docv): a .jsonl suffix \
           streams JSONL (one event per line), anything else writes a Chrome \
           trace_event file for chrome://tracing / Perfetto.")

let emit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-bench-json" ] ~docv:"FILE"
        ~doc:
          "Write a versioned benchmark artifact (throughput plus \
           trace-derived lock metrics per lock and thread count) to $(docv).")

(* The sink the traced runs write into, plus the finaliser that lands the
   file, plus whether runs should capture metric rollups. *)
let observe trace emit =
  let sink, finish =
    match trace with
    | None -> (Numa_trace.Sink.noop, fun () -> ())
    | Some path when Filename.check_suffix path ".jsonl" ->
        let sink = Numa_trace.Jsonl.to_file path in
        (sink, fun () -> Numa_trace.Sink.close sink)
    | Some path ->
        let ring = Numa_trace.Ring.create ~capacity:1_048_576 in
        ( Numa_trace.Ring.sink ring,
          fun () ->
            Numa_trace.Chrome.write_file path (Numa_trace.Ring.events ring) )
  in
  let finish () =
    finish ();
    Option.iter (Printf.printf "wrote %s\n%!") trace
  in
  (sink, finish, emit <> None)

let sweep_entries ~experiment (s : X.sweep) =
  Array.to_list s.X.cells
  |> List.concat_map (fun col ->
         Array.to_list col
         |> List.map (Harness.Bench_json.entry_of_result ~experiment))

let emit_artifact emit ~seed sweeps =
  Option.iter
    (fun path ->
      let entries =
        List.concat_map
          (fun (experiment, s) -> sweep_entries ~experiment s)
          sweeps
      in
      Harness.Bench_json.(write path (make ~substrate:"sim" ~seed entries));
      Printf.printf "wrote %s\n%!" path)
    emit

let maybe_csv csv_dir name ~x_label ~columns ~rows =
  Option.iter
    (fun dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (name ^ ".csv") in
      R.write_file path (R.csv_of_series ~x_label ~columns ~rows);
      Printf.printf "wrote %s\n%!" path)
    csv_dir

let banner topology duration seed =
  Printf.printf "%s\n%!"
    (X.params_summary ~topology ~duration:(duration * 1_000_000) ~seed)

(* --- Coherence attribution (--profile / the profile subcommand) -------- *)

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Also print a per-site coherence attribution table (remote \
           transfers, invalidations, stall-ns split) for every lock at the \
           highest thread count of the sweep.")

let print_profile ~name (r : Harness.Lbench.result) =
  match r.Harness.Lbench.profile with
  | None -> ()
  | Some p ->
      let acquires = r.Harness.Lbench.iterations in
      Printf.printf "\n-- %s @ %d threads: coherence attribution --\n" name
        r.Harness.Lbench.n_threads;
      Format.printf "%a" Numa_trace.Profile.pp p;
      Printf.printf
        "remote transfers / acquisition = %.3f   invalidations / release = \
         %.3f\n%!"
        (Numa_trace.Profile.remote_transfers_per_acquire p ~acquires)
        (Numa_trace.Profile.invalidations_per_release p ~releases:acquires)

let print_sweep_profiles (s : X.sweep) =
  List.iteri
    (fun i name ->
      let col = s.X.cells.(i) in
      print_profile ~name col.(Array.length col - 1))
    s.X.columns

let run_figs ~which ~topology ?(sink = Numa_trace.Sink.noop) ?(rollup = false)
    ?(profile = false) threads duration seed csv_dir =
  banner topology duration seed;
  let duration = duration * 1_000_000 in
  let s =
    X.microbench_sweep
      ~locks:(List.map (LR.with_trace sink) LR.microbench_locks)
      ~rollup ~profile ~topology ~threads ~duration ~seed ()
  in
  if List.mem `F2 which then begin
    X.print_fig2 s;
    maybe_csv csv_dir "fig2" ~x_label:"threads" ~columns:s.X.columns
      ~rows:(X.throughput_rows s)
  end;
  if List.mem `F3 which then begin
    X.print_fig3 s;
    maybe_csv csv_dir "fig3" ~x_label:"threads" ~columns:s.X.columns
      ~rows:(X.misses_rows s)
  end;
  if List.mem `F4 which then X.print_fig4 s;
  if List.mem `F5 which then begin
    X.print_fig5 s;
    X.print_fig5_latency s;
    maybe_csv csv_dir "fig5" ~x_label:"threads" ~columns:s.X.columns
      ~rows:(X.fairness_rows s)
  end;
  if profile then print_sweep_profiles s;
  s

let fig_cmd name which doc =
  let run topology threads duration seed csv_dir trace emit profile =
    let sink, finish, rollup = observe trace emit in
    let s =
      run_figs ~which ~topology ~sink ~rollup ~profile threads duration seed
        csv_dir
    in
    finish ();
    emit_artifact emit ~seed [ ("lbench", s) ]
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ topology_arg
      $ threads_arg ~default:default_threads
      $ duration_arg $ seed_arg $ csv_dir_arg $ trace_arg $ emit_arg
      $ profile_flag)

let fig6_cmd =
  let run topology threads duration seed patience csv_dir trace emit =
    banner topology duration seed;
    let duration = duration * 1_000_000 in
    let sink, finish, rollup = observe trace emit in
    let s =
      X.abortable_sweep
        ~locks:(List.map (LR.with_trace_abortable sink) LR.abortable_locks)
        ~rollup ~topology ~threads ~duration ~seed
        ~patience:(patience * 1_000) ()
    in
    X.print_fig6 s;
    maybe_csv csv_dir "fig6" ~x_label:"threads" ~columns:s.X.columns
      ~rows:(X.throughput_rows s);
    finish ();
    emit_artifact emit ~seed [ ("lbench-abortable", s) ]
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Abortable lock throughput (Figure 6).")
    Term.(
      const run $ topology_arg
      $ threads_arg ~default:default_threads
      $ duration_arg $ seed_arg $ patience_arg $ csv_dir_arg $ trace_arg
      $ emit_arg)

let table1_cmd =
  let run topology threads duration seed mixes csv_dir trace =
    banner topology duration seed;
    let duration = duration * 1_000_000 in
    let sink, finish, _ = observe trace None in
    let locks = List.map (LR.with_trace sink) LR.app_locks in
    List.iter
      (fun mix ->
        let t = X.table1 ~locks ~topology ~threads ~duration ~seed ~mix () in
        X.print_table t;
        maybe_csv csv_dir
          (Printf.sprintf "table1_%.0fpct_sets" (mix.W.set_ratio *. 100.))
          ~x_label:"threads" ~columns:t.X.t_columns ~rows:t.X.t_rows)
      mixes;
    finish ()
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"memcached-style KV store speedups (Table 1).")
    Term.(
      const run $ topology_arg
      $ threads_arg ~default:default_app_threads
      $ duration_arg $ seed_arg $ mix_arg $ csv_dir_arg $ trace_arg)

let table2_cmd =
  let run topology threads duration seed csv_dir trace =
    banner topology duration seed;
    let duration = duration * 1_000_000 in
    let sink, finish, _ = observe trace None in
    let locks = List.map (LR.with_trace sink) LR.app_locks in
    let t = X.table2 ~locks ~topology ~threads ~duration ~seed () in
    X.print_table t;
    maybe_csv csv_dir "table2" ~x_label:"threads" ~columns:t.X.t_columns
      ~rows:t.X.t_rows;
    finish ()
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Allocator stress, malloc-free pairs/ms (Table 2).")
    Term.(
      const run $ topology_arg
      $ threads_arg ~default:[ 1; 2; 4; 8; 16; 32; 64; 128; 255 ]
      $ duration_arg $ seed_arg $ csv_dir_arg $ trace_arg)

let ablation_handoff_cmd =
  let run topology n duration seed =
    banner topology duration seed;
    let t =
      X.ablation_handoff_bound ~topology ~n_threads:n
        ~duration:(duration * 1_000_000) ~seed ()
    in
    X.print_table t
  in
  Cmd.v
    (Cmd.info "ablation-handoff"
       ~doc:"Sweep of the may-pass-local bound (section 3.7).")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let ablation_policy_cmd =
  let run topology n duration seed =
    banner topology duration seed;
    X.print_table
      (X.ablation_policy ~topology ~n_threads:n
         ~duration:(duration * 1_000_000) ~seed ())
  in
  Cmd.v
    (Cmd.info "ablation-policy"
       ~doc:"Counted vs time-budget may-pass-local policies (section 2.1).")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let ext_blocking_cmd =
  let run topology threads duration seed =
    banner topology duration seed;
    X.print_table
      (X.extension_blocking ~topology ~threads
         ~duration:(duration * 1_000_000) ~seed ())
  in
  Cmd.v
    (Cmd.info "ext-blocking"
       ~doc:"Extension: the blocking cohort lock C-BLK-BLK.")
    Term.(
      const run $ topology_arg
      $ threads_arg ~default:default_app_threads
      $ duration_arg $ seed_arg)

let ext_rw_cmd =
  let run topology n duration seed =
    banner topology duration seed;
    X.print_table
      (X.extension_rw ~topology ~n_threads:n ~duration:(duration * 1_000_000)
         ~seed ())
  in
  Cmd.v
    (Cmd.info "ext-rw"
       ~doc:"Extension: the NUMA-aware reader-writer lock C-RW-WP.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let matrix_cmd =
  let run topology n duration seed =
    banner topology duration seed;
    X.print_table
      (X.composition_matrix ~topology ~n_threads:n
         ~duration:(duration * 1_000_000) ~seed ())
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
        "LBench throughput of all 16 global x local cohort compositions.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let ext_bimodal_cmd =
  let run topology n duration seed =
    banner topology duration seed;
    X.print_table
      (X.extension_bimodal ~topology ~n_threads:n
         ~duration:(duration * 1_000_000) ~seed ())
  in
  Cmd.v
    (Cmd.info "ext-bimodal"
       ~doc:"Extension: bi-modal (phase-alternating) KV workload.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & opt int 32
          & info [ "n-threads" ] ~docv:"N" ~doc:"Server threads.")
      $ duration_arg $ seed_arg)

let topology_cmd =
  let run n duration seed =
    banner Numa_base.Topology.t5440 duration seed;
    X.print_table
      (X.topology_sensitivity ~n_threads:n ~duration:(duration * 1_000_000)
         ~seed ())
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Cohort gain across machine shapes (UMA control, 2/4/8 sockets).")
    Term.(
      const run
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let ablation_hbo_cmd =
  let run topology duration seed =
    banner topology duration seed;
    let t =
      X.ablation_hbo_tuning ~topology ~duration:(duration * 1_000_000) ~seed ()
    in
    X.print_table t
  in
  Cmd.v
    (Cmd.info "ablation-hbo"
       ~doc:"HBO backoff-parameter instability across workloads.")
    Term.(const run $ topology_arg $ duration_arg $ seed_arg)

let hier_cmd =
  let run n duration seed =
    banner Numa_base.Topology.rack duration seed;
    X.print_table
      (X.hierarchy_comparison ~n_threads:n ~duration:(duration * 1_000_000)
         ~seed ())
  in
  Cmd.v
    (Cmd.info "hier"
       ~doc:
         "Flat T5440 vs the rack preset (two racks of two sockets, three \
          latency tiers): the cohort gain under deeper distance structure.")
    Term.(
      const run
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let successors_cmd =
  let run topology n duration seed =
    banner topology duration seed;
    X.print_table
      (X.successor_comparison ~topology ~n_threads:n
         ~duration:(duration * 1_000_000) ~seed ())
  in
  Cmd.v
    (Cmd.info "successors"
       ~doc:
         "Paper-vs-successor table: MCS and C-BO-MCS against CNA (compact \
          NUMA-aware lock) and the partition ticket lock — throughput, \
          remote transfers per acquisition, and lock-metadata cache-line \
          footprint.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg)

let profile_cmd =
  (* The paper-claim smoke (ci.sh): C-BO-MCS must move the lock data
     across clusters less often than plain MCS — section 4's explanation
     of the cohort advantage, here measured directly by the attribution
     profiler instead of inferred from throughput. The successor claim
     rides along: CNA gets its cohort-style batching out of a single
     lock word plus the waiter nodes, so its lock-metadata footprint
     (distinct cache lines, Profile.lock_lines) must be strictly below
     C-BO-MCS's global-lock + per-cluster-locks + counters layering. *)
  let run topology lock_names n duration seed check =
    banner topology duration seed;
    let duration = duration * 1_000_000 in
    let locks =
      List.map
        (fun name ->
          match LR.find name with
          | Some e -> e
          | None ->
              Printf.eprintf "profile: unknown lock %S\n%!" name;
              exit 2)
        lock_names
    in
    let s =
      X.microbench_sweep ~locks ~profile:true ~topology ~threads:[ n ]
        ~duration ~seed ()
    in
    let results =
      List.map2
        (fun name col -> (name, col.(0)))
        s.X.columns
        (Array.to_list s.X.cells)
    in
    List.iter (fun (name, r) -> print_profile ~name r) results;
    let per_acq (r : Harness.Lbench.result) =
      match r.Harness.Lbench.profile with
      | Some p ->
          Numa_trace.Profile.remote_transfers_per_acquire p
            ~acquires:r.Harness.Lbench.iterations
      | None -> Float.nan
    in
    let lines (r : Harness.Lbench.result) =
      match r.Harness.Lbench.profile with
      | Some p -> Numa_trace.Profile.lock_lines p
      | None -> 0
    in
    Printf.printf
      "\nremote transfers per acquisition / lock-metadata lines @ %d threads:\n"
      n;
    List.iter
      (fun (name, r) ->
        Printf.printf "  %-12s %8.3f %6d lines\n" name (per_acq r) (lines r))
      results;
    if check then begin
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
      let gate = function
        | Ok msg -> Printf.printf "check OK: %s\n%!" msg
        | Error msg ->
            Printf.eprintf "check FAILED: %s\n%!" msg;
            exit 1
      in
      gate
        (Harness.Gates.transfers_claim ~mcs_per_acq:(per_acq (get "MCS"))
           ~cohort_per_acq:(per_acq (get "C-BO-MCS")));
      gate
        (Harness.Gates.lines_claim ~cna_lines:(lines (get "CNA"))
           ~cohort_lines:(lines (get "C-BO-MCS")))
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-lock, per-site coherence attribution profile (remote \
          cache-to-cache transfers, invalidations, stall-ns split by cause, \
          interconnect queueing) on the LBench workload.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value
          & pos_all string [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ]
          & info [] ~docv:"LOCK"
              ~doc:
                "Registry locks to profile (default: MCS C-BO-MCS CNA PTL).")
      $ Arg.(
          value & opt int 64
          & info [ "n-threads" ] ~docv:"N" ~doc:"Contending threads.")
      $ duration_arg $ seed_arg
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Exit non-zero unless C-BO-MCS shows strictly fewer remote \
                 transfers per acquisition than MCS, and CNA touches fewer \
                 distinct lock-metadata cache lines than C-BO-MCS (the \
                 paper-claim gate used by scripts/ci.sh)."))

let predict_cmd =
  (* The throughput oracle (doc/SIMULATOR.md "Model validation"): run
     the LBench sweep with rollups on, print predicted vs measured per
     point ranked by |error|, and under --check gate the median absolute
     error on the core curves through Harness.Gates. *)
  let run topology lock_names threads duration seed check =
    banner topology duration seed;
    let duration = duration * 1_000_000 in
    let locks =
      List.map
        (fun name ->
          match LR.find name with
          | Some e -> e
          | None ->
              Printf.eprintf "predict: unknown lock %S\n%!" name;
              exit 2)
        lock_names
    in
    let s =
      X.microbench_sweep ~locks ~rollup:true ~topology ~threads ~duration
        ~seed ()
    in
    let points =
      List.concat
        (List.mapi
           (fun i name ->
             Array.to_list s.X.cells.(i)
             |> List.map (fun (r : Harness.Lbench.result) -> (name, r)))
           s.X.columns)
    in
    let err_pct (r : Harness.Lbench.result) =
      match r.Harness.Lbench.predicted with
      | Some p -> 100. *. p.Numa_trace.Predict.err
      | None -> Float.nan
    in
    let ranked =
      List.stable_sort
        (fun (_, a) (_, b) ->
          (* |err| descending; nan (no prediction) sorts last. *)
          let key r =
            let e = Float.abs (err_pct r) in
            if Float.is_nan e then Float.neg_infinity else e
          in
          Float.compare (key b) (key a))
        points
    in
    Printf.printf
      "\npredicted vs measured throughput (LBench), worst first:\n";
    Printf.printf "  %-12s %4s  %11s  %11s  %7s  %9s ns  %8s ns\n" "lock" "thr"
      "measured" "predicted" "err" "service" "handoff";
    List.iter
      (fun (name, (r : Harness.Lbench.result)) ->
        match r.Harness.Lbench.predicted with
        | None ->
            Printf.printf "  %-12s %4d  %11.3e  %11s  %7s\n" name
              r.Harness.Lbench.n_threads r.Harness.Lbench.throughput "-" "-"
        | Some p ->
            Printf.printf
              "  %-12s %4d  %11.3e  %11.3e  %+6.1f%%  %9.1f     %8.1f\n" name
              r.Harness.Lbench.n_threads r.Harness.Lbench.throughput
              p.Numa_trace.Predict.throughput (100. *. p.Numa_trace.Predict.err)
              p.Numa_trace.Predict.service_ns p.Numa_trace.Predict.handoff_ns)
      ranked;
    if check then begin
      let core =
        List.concat_map
          (fun lock ->
            List.map (fun n -> (lock, n)) Harness.Gates.pred_core_threads)
          Harness.Gates.pred_core_locks
      in
      let errs =
        List.map
          (fun (lock, n) ->
            match
              List.find_opt
                (fun (name, (r : Harness.Lbench.result)) ->
                  name = lock && r.Harness.Lbench.n_threads = n)
                points
            with
            | Some (_, r) -> err_pct r
            | None ->
                Printf.eprintf
                  "predict --check: core point %s @ %d threads not in the run \
                   (need %s at threads %s)\n\
                   %!"
                  lock n
                  (String.concat ", " Harness.Gates.pred_core_locks)
                  (String.concat ","
                     (List.map string_of_int Harness.Gates.pred_core_threads));
                exit 2)
          core
      in
      match Harness.Gates.prediction_claim ~err_pcts:errs with
      | Ok msg -> Printf.printf "check OK: %s\n%!" msg
      | Error msg ->
          Printf.eprintf "check FAILED: %s\n%!" msg;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Analytic throughput prediction (serial/contended decomposition over \
          the trace rollup and interconnect stats) against the measured \
          LBench curves, ranked by error.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value
          & pos_all string [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ]
          & info [] ~docv:"LOCK"
              ~doc:
                "Registry locks to predict (default: MCS C-BO-MCS CNA PTL).")
      $ threads_arg ~default:Harness.Gates.pred_core_threads
      $ duration_arg $ seed_arg
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Exit non-zero unless the median absolute prediction error on \
                 the core curves (MCS, C-BO-MCS, CNA at the pinned thread \
                 counts) stays within the stated band (the prediction gate \
                 used by scripts/ci.sh)."))

let collapse_cmd =
  (* Saturation collapse: thread counts from capacity to far past it,
     under the explicit preemption model (Experiments.collapse_run). The
     headline beyond-the-paper result: plain BO/TKT/MCS collapse once
     logical threads exceed contexts, GCR-wrapped locks hold. *)
  let default_collapse_threads = [ 64; 256; 1024; 4096; 8192 ] in
  let collapse_duration_arg =
    Arg.(
      value & opt duration_conv 2
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:
            "Simulated measurement window per data point, in milliseconds \
             (the post-window drain of blocked acquires runs beyond it).")
  in
  let run topology names threads duration seed csv_dir trace emit =
    banner topology duration seed;
    let duration = duration * 1_000_000 in
    let sink, finish, _ = observe trace emit in
    let picked =
      match names with
      | [] -> LR.collapse_locks
      | names ->
          List.map
            (fun n ->
              match
                List.find_opt
                  (fun (e : LR.entry) -> e.LR.name = n)
                  LR.collapse_locks
              with
              | Some e -> e
              | None ->
                  Printf.eprintf
                    "repro collapse: unknown lock %s (collapse line-up: %s)\n" n
                    (String.concat " "
                       (List.map (fun (e : LR.entry) -> e.LR.name)
                          LR.collapse_locks));
                  exit 2)
            names
    in
    let locks = List.map (LR.with_trace sink) picked in
    let s = X.collapse_sweep ~locks ~topology ~threads ~duration ~seed () in
    X.print_collapse ~topology s;
    maybe_csv csv_dir "collapse" ~x_label:"threads" ~columns:s.X.columns
      ~rows:(X.throughput_rows s);
    finish ();
    emit_artifact emit ~seed [ ("collapse", s) ]
  in
  Cmd.v
    (Cmd.info "collapse"
       ~doc:
         "Saturation collapse under extreme oversubscription: plain \
          BO/TKT/MCS against their GCR concurrency-restricted wrappers and \
          the cohort reference, from in-capacity thread counts to thousands \
          of logical fibers.")
    Term.(
      const run $ topology_arg
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"LOCK"
              ~doc:
                "Subset of the collapse line-up to run (default: all seven).")
      $ threads_arg ~default:default_collapse_threads
      $ collapse_duration_arg $ seed_arg $ csv_dir_arg $ trace_arg $ emit_arg)

let all_cmd =
  let run topology duration seed csv_dir trace emit =
    let sink, finish, rollup = observe trace emit in
    let sweep =
      run_figs ~which:[ `F2; `F3; `F4; `F5 ] ~topology ~sink ~rollup
        default_threads duration seed csv_dir
    in
    let d = duration * 1_000_000 in
    let s =
      X.abortable_sweep
        ~locks:(List.map (LR.with_trace_abortable sink) LR.abortable_locks)
        ~rollup ~topology ~threads:default_threads ~duration:d ~seed
        ~patience:2_000_000 ()
    in
    X.print_fig6 s;
    List.iter
      (fun mix ->
        X.print_table
          (X.table1 ~topology ~threads:default_app_threads ~duration:d ~seed
             ~mix ()))
      [ W.read_heavy; W.mixed; W.write_heavy ];
    X.print_table
      (X.table2 ~topology
         ~threads:[ 1; 2; 4; 8; 16; 32; 64; 128; 255 ]
         ~duration:d ~seed ());
    X.print_table (X.ablation_handoff_bound ~topology ~n_threads:64 ~duration:d ~seed ());
    X.print_table (X.ablation_hbo_tuning ~topology ~duration:d ~seed ());
    X.print_table (X.ablation_policy ~topology ~n_threads:64 ~duration:d ~seed ());
    X.print_table (X.extension_blocking ~topology ~threads:default_app_threads ~duration:d ~seed ());
    X.print_table (X.extension_rw ~topology ~n_threads:64 ~duration:d ~seed ());
    X.print_table (X.extension_bimodal ~topology ~n_threads:32 ~duration:d ~seed ());
    X.print_table (X.topology_sensitivity ~n_threads:64 ~duration:d ~seed ());
    X.print_table (X.hierarchy_comparison ~n_threads:64 ~duration:d ~seed ());
    X.print_table (X.composition_matrix ~topology ~n_threads:64 ~duration:d ~seed ());
    X.print_table (X.successor_comparison ~topology ~n_threads:64 ~duration:d ~seed ());
    finish ();
    emit_artifact emit ~seed [ ("lbench", sweep); ("lbench-abortable", s) ]
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every figure and table.")
    Term.(
      const run $ topology_arg $ duration_arg $ seed_arg $ csv_dir_arg
      $ trace_arg $ emit_arg)

let () =
  let cmds =
    [
      fig_cmd "fig2" [ `F2 ] "LBench throughput (Figure 2).";
      fig_cmd "fig3" [ `F3 ] "L2 coherence misses per CS (Figure 3).";
      fig_cmd "fig4" [ `F4 ] "Low-contention throughput (Figure 4).";
      fig_cmd "fig5" [ `F5 ] "Fairness (Figure 5).";
      fig_cmd "figs" [ `F2; `F3; `F4; `F5 ] "Figures 2-5 from one sweep.";
      fig6_cmd;
      table1_cmd;
      table2_cmd;
      ablation_handoff_cmd;
      ablation_hbo_cmd;
      ablation_policy_cmd;
      topology_cmd;
      hier_cmd;
      ext_blocking_cmd;
      ext_rw_cmd;
      ext_bimodal_cmd;
      matrix_cmd;
      successors_cmd;
      collapse_cmd;
      profile_cmd;
      predict_cmd;
      all_cmd;
    ]
  in
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'Lock Cohorting: A General Technique \
         for Designing NUMA Locks' (PPoPP'12) on a simulated 4-socket NUMA \
         machine."
  in
  exit (Cmd.eval (Cmd.group info cmds))
