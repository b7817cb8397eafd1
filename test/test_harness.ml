(* Tests for the experiment harness: LBench metrics, sweep plumbing,
   table runners, report rendering. Runs are tiny (small topology / short
   windows) — these check correctness of the harness, not performance. *)

open Numa_base
module LI = Cohort.Lock_intf
module LB = Harness.Lbench
module X = Harness.Experiments
module R = Harness.Lock_registry
module Rep = Harness.Report

let topo = Topology.t5440
let cfg = { LI.default with LI.clusters = 4; max_threads = 256 }

let mcs = Option.get (R.find "MCS")
let cbomcs = Option.get (R.find "C-BO-MCS")

let test_lbench_counts_consistent () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:8
      ~duration:500_000 ~seed:1
  in
  Alcotest.(check int)
    "per-thread sums to total" r.LB.iterations
    (Array.fold_left ( + ) 0 r.LB.per_thread);
  Alcotest.(check int) "thread count" 8 (Array.length r.LB.per_thread);
  Alcotest.(check bool) "made progress" true (r.LB.iterations > 100);
  Alcotest.(check bool) "throughput positive" true (r.LB.throughput > 0.);
  Alcotest.(check bool)
    "throughput consistent" true
    (abs_float
       (r.LB.throughput
       -. (float_of_int r.LB.iterations /. (float_of_int r.LB.duration_ns *. 1e-9)))
    < 1.0);
  Alcotest.(check int) "no aborts on plain lock" 0 r.LB.aborts

let test_lbench_deterministic () =
  let go () =
    let r =
      LB.run ~name:"C-BO-MCS" cbomcs.R.lock ~topology:topo ~cfg ~n_threads:16
        ~duration:300_000 ~seed:7
    in
    (r.LB.iterations, r.LB.migrations, r.LB.per_thread)
  in
  Alcotest.(check bool) "identical reruns" true (go () = go ())

let test_lbench_seed_matters () =
  let go seed =
    (LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:8
       ~duration:300_000 ~seed)
      .LB.iterations
  in
  Alcotest.(check bool) "different seeds differ" true (go 1 <> go 2)

let test_lbench_migrations_bounded () =
  let r =
    LB.run ~name:"C-BO-MCS" cbomcs.R.lock ~topology:topo ~cfg ~n_threads:32
      ~duration:500_000 ~seed:3
  in
  Alcotest.(check bool) "migrations < iterations" true
    (r.LB.migrations <= r.LB.iterations);
  Alcotest.(check bool) "some migrations" true (r.LB.migrations >= 1);
  (* A cohort lock under contention batches: migrations well below 50%. *)
  Alcotest.(check bool) "batching visible" true
    (r.LB.migrations * 4 < r.LB.iterations)

let test_lbench_single_thread_zero_misses () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:1
      ~duration:300_000 ~seed:5
  in
  Alcotest.(check (float 0.0001)) "no coherence misses alone" 0.
    r.LB.misses_per_cs;
  Alcotest.(check (float 0.0001)) "perfect fairness alone" 0.
    r.LB.fairness_stddev_pct

let test_lbench_abortable_runs () =
  let e = Option.get (R.find_abortable "A-C-BO-CLH") in
  let r =
    LB.run_abortable ~name:e.R.a_name e.R.a_lock ~topology:topo ~cfg
      ~n_threads:16 ~duration:500_000 ~seed:11 ~patience:2_000_000
  in
  Alcotest.(check bool) "progress" true (r.LB.iterations > 100);
  Alcotest.(check bool) "abort rate sane" true
    (r.LB.abort_rate >= 0. && r.LB.abort_rate < 0.5)

let test_lbench_tiny_patience_aborts () =
  let e = Option.get (R.find_abortable "A-HBO") in
  let r =
    LB.run_abortable ~name:e.R.a_name e.R.a_lock ~topology:topo ~cfg
      ~n_threads:32 ~duration:500_000 ~seed:13 ~patience:200
  in
  Alcotest.(check bool) "tiny patience causes aborts" true (r.LB.aborts > 0)

let test_lbench_latency_percentiles () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:16
      ~duration:500_000 ~seed:9
  in
  Alcotest.(check bool) "p50 positive under contention" true
    (r.LB.acquire_p50 > 0.);
  Alcotest.(check bool) "p99 >= p50" true (r.LB.acquire_p99 >= r.LB.acquire_p50);
  Alcotest.(check bool) "max >= p99 bucket lower bound" true
    (r.LB.acquire_max >= r.LB.acquire_p50)

(* --- sweeps ------------------------------------------------------------- *)

let small_locks = [ Option.get (R.find "MCS"); Option.get (R.find "C-BO-MCS") ]

let test_sweep_shape () =
  let s =
    X.microbench_sweep ~locks:small_locks ~topology:topo ~threads:[ 1; 8 ]
      ~duration:200_000 ~seed:1 ()
  in
  Alcotest.(check (list string)) "columns" [ "MCS"; "C-BO-MCS" ] s.X.columns;
  Alcotest.(check int) "cols" 2 (Array.length s.X.cells);
  Alcotest.(check int) "rows" 2 (Array.length s.X.cells.(0));
  let rows = X.throughput_rows s in
  Alcotest.(check int) "row count" 2 (List.length rows);
  List.iter
    (fun (_, vs) -> Array.iter (fun v -> assert (v > 0.)) vs)
    rows

let test_low_contention_filter () =
  let s =
    X.microbench_sweep ~locks:small_locks ~topology:topo
      ~threads:[ 1; 8; 64 ] ~duration:200_000 ~seed:1 ()
  in
  let s' = X.low_contention s in
  Alcotest.(check (list int)) "kept <=16" [ 1; 8 ] s'.X.threads;
  Alcotest.(check int) "cells trimmed" 2 (Array.length s'.X.cells.(0))

let test_table1_smoke () =
  let t =
    X.table1 ~locks:small_locks ~topology:topo ~threads:[ 1; 4 ]
      ~duration:300_000 ~seed:1 ~mix:Apps.Kv_workload.mixed ()
  in
  Alcotest.(check int) "rows" 2 (List.length t.X.t_rows);
  List.iter
    (fun (_, vs) ->
      Array.iter (fun v -> assert (v > 0.01 && v < 1000.)) vs)
    t.X.t_rows;
  (* more threads should not be slower than 1 thread for a sane lock *)
  let v1 = snd (List.nth t.X.t_rows 0) in
  let v4 = snd (List.nth t.X.t_rows 1) in
  Alcotest.(check bool) "scaling positive" true (v4.(0) > v1.(0))

let test_table2_smoke () =
  let t =
    X.table2 ~locks:small_locks ~topology:topo ~threads:[ 1; 8 ]
      ~duration:300_000 ~seed:1 ()
  in
  List.iter
    (fun (_, vs) -> Array.iter (fun v -> assert (v > 1.)) vs)
    t.X.t_rows;
  let v1 = snd (List.nth t.X.t_rows 0) in
  let v8 = snd (List.nth t.X.t_rows 1) in
  Alcotest.(check bool) "mmicro scales" true (v8.(1) > v1.(1))

let test_ablation_handoff_smoke () =
  let t =
    X.ablation_handoff_bound ~topology:topo ~n_threads:16 ~duration:200_000
      ~seed:1 ()
  in
  Alcotest.(check int) "7 bounds" 7 (List.length t.X.t_rows);
  (* Throughput with a generous bound beats always-global (bound 0). *)
  let tput_at i = (snd (List.nth t.X.t_rows i)).(0) in
  Alcotest.(check bool) "bound 64 beats bound 0" true (tput_at 4 > tput_at 0)

(* --- registry ------------------------------------------------------------ *)

let test_registry_names_unique () =
  let names = List.map (fun (e : R.entry) -> e.R.name) R.all_locks in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length sorted)

let test_registry_find () =
  Alcotest.(check bool) "find MCS" true (R.find "MCS" <> None);
  Alcotest.(check bool) "find C-MCS-MCS" true (R.find "C-MCS-MCS" <> None);
  Alcotest.(check bool) "missing" true (R.find "nope" = None);
  Alcotest.(check bool) "abortable" true (R.find_abortable "A-CLH" <> None)

let test_registry_expected_lineups () =
  (* 9 paper locks + the two successors (CNA, PTL). *)
  Alcotest.(check int) "fig2 has 11 locks" 11 (List.length R.microbench_locks);
  Alcotest.(check int) "fig6 has 4 locks" 4 (List.length R.abortable_locks);
  Alcotest.(check int) "tables have 13 locks" 13 (List.length R.app_locks)

(* --- report -------------------------------------------------------------- *)

let test_fmt_si () =
  Alcotest.(check string) "millions" "6.40M" (Rep.fmt_si 6_400_000.);
  Alcotest.(check string) "thousands" "497.0k" (Rep.fmt_si 497_000.);
  Alcotest.(check string) "small" "0.32" (Rep.fmt_si 0.32);
  Alcotest.(check string) "tens" "42" (Rep.fmt_si 42.1)

let test_csv_roundtrip () =
  let csv =
    Rep.csv_of_series ~x_label:"threads" ~columns:[ "A"; "B" ]
      ~rows:[ (1, [| 1.5; 2.5 |]); (2, [| 3.0; Float.nan |]) ]
  in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "3 lines" 3 (List.length lines);
  Alcotest.(check string) "header" "threads,A,B" (List.nth lines 0);
  Alcotest.(check string) "row 1" "1,1.5,2.5" (List.nth lines 1);
  Alcotest.(check string) "nan blank" "2,3," (List.nth lines 2)

(* --- check_lock: lock-usage checking by the oracle's wrap ---------------- *)

module CLS = Numa_check.Oracle.Make (Numasim.Sim_mem)
module V = Numa_check.Violation

let test_check_lock_clean_usage () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  let ok = ref 0 in
  ignore
    (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:4
       (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 25 do
           L.acquire th;
           Numasim.Sim_mem.pause 50;
           incr ok;
           L.release th;
           Numasim.Sim_mem.pause 80
         done));
  Alcotest.(check int) "clean usage passes" 100 !ok

let check_violation body =
  try
    ignore
      (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:1
         (fun ~tid ~cluster -> body ~tid ~cluster));
    false
  with
  | V.Violation _ -> true
  | Numasim.Engine.Thread_failure { exn = V.Violation _; _ } -> true

let test_check_lock_double_release () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  Alcotest.(check bool) "double release detected" true
    (check_violation (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         L.acquire th;
         L.release th;
         L.release th))

let test_check_lock_release_without_acquire () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  Alcotest.(check bool) "bare release detected" true
    (check_violation (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         L.release th))

let test_check_lock_reentrant_acquire () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  Alcotest.(check bool) "reentrancy detected" true
    (check_violation (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         L.acquire th;
         L.acquire th))

(* Every catalogue entry at tiny parameters: the subcommands (bar [all]
   and [quick], the folds over the plan) plus the plan steps that are not
   subcommands. *)
module C = Harness.Catalogue

let names es = List.map (fun e -> e.C.name) es

let test_catalogue_names_unique () =
  List.iter
    (fun (what, es) ->
      let ns = names es in
      Alcotest.(check int) what (List.length ns)
        (List.length (List.sort_uniq compare ns)))
    [ ("commands", C.commands); ("plan", C.plan) ]

let test_catalogue_entries_run () =
  let entries =
    List.filter (fun e -> not (List.mem e.C.name [ "all"; "quick" ])) C.commands
    @ List.filter (fun e -> not (List.mem e.C.name (names C.commands))) C.plan
  in
  List.iter
    (fun e ->
      let events = ref 0 in
      let env =
        { C.sink = Numa_trace.Sink.make (fun _ -> incr events); rollup = false;
          profile = false; csv_dir = None }
      in
      let p =
        { e.C.defaults with C.topology = Topology.small; threads = [ 1; 4 ];
          n_threads = 4; duration = 200_000 }
      in
      let outputs = e.C.run env p in
      Alcotest.(check bool) (e.C.name ^ " produced output") true (outputs <> []);
      (* An entry with --trace records its runs, in the plan as alone. *)
      if List.mem C.Trace e.C.knobs then
        Alcotest.(check bool) (e.C.name ^ " traced") true (!events > 0);
      List.iter
        (function
          | C.Sweep (_, s) ->
              Alcotest.(check int) (e.C.name ^ " columns")
                (List.length s.X.columns) (Array.length s.X.cells);
              Array.iter
                (fun col ->
                  Alcotest.(check int) (e.C.name ^ " rows")
                    (List.length s.X.threads) (Array.length col))
                s.X.cells
          | C.Table t ->
              Alcotest.(check bool) (e.C.name ^ " table rows") true
                (t.X.t_rows <> []))
        outputs)
    entries

let suite =
  [
    ( "catalogue",
      [
        Alcotest.test_case "unique names" `Quick test_catalogue_names_unique;
        Alcotest.test_case "every entry runs" `Quick test_catalogue_entries_run;
      ] );
    ( "lbench",
      [
        Alcotest.test_case "counts consistent" `Quick
          test_lbench_counts_consistent;
        Alcotest.test_case "deterministic" `Quick test_lbench_deterministic;
        Alcotest.test_case "seed matters" `Quick test_lbench_seed_matters;
        Alcotest.test_case "migrations bounded" `Quick
          test_lbench_migrations_bounded;
        Alcotest.test_case "single thread clean" `Quick
          test_lbench_single_thread_zero_misses;
        Alcotest.test_case "abortable runs" `Quick test_lbench_abortable_runs;
        Alcotest.test_case "tiny patience aborts" `Quick
          test_lbench_tiny_patience_aborts;
        Alcotest.test_case "latency percentiles" `Quick
          test_lbench_latency_percentiles;
      ] );
    ( "experiments",
      [
        Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
        Alcotest.test_case "low contention filter" `Quick
          test_low_contention_filter;
        Alcotest.test_case "table1 smoke" `Quick test_table1_smoke;
        Alcotest.test_case "table2 smoke" `Quick test_table2_smoke;
        Alcotest.test_case "ablation handoff" `Quick
          test_ablation_handoff_smoke;
      ] );
    ( "registry",
      [
        Alcotest.test_case "unique names" `Quick test_registry_names_unique;
        Alcotest.test_case "find" `Quick test_registry_find;
        Alcotest.test_case "lineups" `Quick test_registry_expected_lineups;
      ] );
    ( "check_lock",
      [
        Alcotest.test_case "clean usage" `Quick test_check_lock_clean_usage;
        Alcotest.test_case "double release" `Quick
          test_check_lock_double_release;
        Alcotest.test_case "bare release" `Quick
          test_check_lock_release_without_acquire;
        Alcotest.test_case "reentrant acquire" `Quick
          test_check_lock_reentrant_acquire;
      ] );
    ( "report",
      [
        Alcotest.test_case "fmt_si" `Quick test_fmt_si;
        Alcotest.test_case "csv" `Quick test_csv_roundtrip;
      ] );
  ]

let () = Alcotest.run "harness" suite
