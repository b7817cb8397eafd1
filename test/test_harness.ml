(* Tests for the experiment harness: LBench metrics, sweep plumbing,
   table runners, report rendering. Runs are tiny (small topology / short
   windows) — these check correctness of the harness, not performance. *)

open Numa_base
module LI = Cohort.Lock_intf
module LB = Harness.Lbench
module X = Harness.Experiments
module R = Harness.Lock_registry
module Rep = Harness.Report
module C = Harness.Catalogue
module BJ = Harness.Bench_json

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

(* A migration is an acquisition by a different cluster than the previous
   holder's; the first acquisition has no previous holder. The loop's
   count must match the lock's own trace. *)
let test_lbench_migrations_exact () =
  let small = Topology.small in
  let cfg = X.cfg_for small [ 8 ] in
  let run ?rollup n =
    LB.run ~name:"MCS" ?rollup mcs.R.lock ~topology:small ~cfg ~n_threads:n
      ~duration:200_000 ~seed:1
  in
  Alcotest.(check int) "1 thread: none" 0 (run 1).LB.migrations;
  let r = run ~rollup:true 8 in
  let m = Option.get r.LB.rollup in
  Alcotest.(check bool) "8 threads: some" true (r.LB.migrations > 0);
  Alcotest.(check int) "8 threads: the trace rollup's"
    m.Numa_trace.Metrics.migrations r.LB.migrations

let test_lbench_single_thread_zero_misses () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:1
      ~duration:300_000 ~seed:5
  in
  Alcotest.(check (float 0.0001)) "no coherence misses alone" 0.
    r.LB.misses_per_cs;
  Alcotest.(check (float 0.0001)) "perfect fairness alone" 0.
    r.LB.fairness_stddev_pct

(* The uncontended acquisition (paper Fig. 4): one MCS thread for 50 ms.
   The critical section bumps its eight counters through a function
   built once per benchmark instance, so a section allocates no
   closure. *)
let test_lbench_alloc_per_acq () =
  let before = Gc.minor_words () in
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:1
      ~duration:50_000_000 ~seed:5
  in
  let per_acq =
    (Gc.minor_words () -. before) /. float_of_int r.LB.iterations
  in
  if per_acq > 5. then
    Alcotest.failf "%.2f minor words per acquisition; the budget is 5"
      per_acq

let find_abortable name =
  List.find (fun e -> e.R.a_name = name) R.abortable_locks

let test_lbench_abortable_runs () =
  let e = find_abortable "A-C-BO-CLH" in
  let r =
    LB.run_abortable ~name:e.R.a_name e.R.a_lock ~topology:topo ~cfg
      ~n_threads:16 ~duration:500_000 ~seed:11 ~patience:2_000_000
  in
  Alcotest.(check bool) "progress" true (r.LB.iterations > 100);
  Alcotest.(check bool) "abort rate sane" true
    (r.LB.abort_rate >= 0. && r.LB.abort_rate < 0.5)

let test_lbench_tiny_patience_aborts () =
  let e = find_abortable "A-HBO" in
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
  Array.iteri
    (fun i col ->
      Alcotest.(check (list int))
        "a row per thread count, in order" [ 1; 8 ]
        (Array.to_list (Array.map (fun (r : LB.result) -> r.LB.n_threads) col));
      Array.iter
        (fun (r : LB.result) ->
          Alcotest.(check string) "cell of its column" (List.nth s.X.columns i)
            r.LB.lock_name;
          assert (r.LB.throughput > 0.))
        col)
    s.X.cells

(* An entry's tables: its points run, then rendered. *)
let render (e : C.entry) env p =
  match e.C.body with
  | C.Points (points, render) -> render p (X.run_points (points env p))
  | C.Plan _ -> Alcotest.fail "a plan renders step by step"

let quiet =
  { C.sink = Numa_trace.Sink.noop; rollup = false; profile = false;
    csv_dir = None }

let command name = List.find (fun e -> e.C.name = name) C.commands

(* Figure 4 keeps the sweep's thread counts up to 16, in order. *)
let test_low_contention_filter () =
  let e = command "fig4" in
  match
    render e quiet
      { e.C.defaults with C.topology = topo; threads = [ 8; 1; 64 ];
        duration = 200_000; seed = 1 }
  with
  | [ ("fig4", t) ] ->
      Alcotest.(check (list int))
        "kept <=16" [ 8; 1 ] (List.map fst t.X.t_rows);
      List.iter
        (fun (_, vs) -> Array.iter (fun v -> assert (v > 0.)) vs)
        t.X.t_rows
  | _ -> Alcotest.fail "fig4: expected one table"

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

(* The cells of one table share a store reset between them: a column
   must not depend on which cells ran before it. A read-heavy 1 ms
   window has enough gets for a leaked LRU stamp to move a column. *)
let test_table1_cells_independent () =
  let table locks =
    X.table1 ~locks ~topology:topo ~threads:[ 1; 4 ] ~duration:1_000_000
      ~seed:1 ~mix:Apps.Kv_workload.read_heavy ()
  in
  let col i t = List.map (fun (_, r) -> Int64.bits_of_float r.(i)) t.X.t_rows in
  Alcotest.(check (list int64))
    "MCS column after C-BO-MCS = MCS alone"
    (col 0 (table [ mcs ]))
    (col 1 (table [ cbomcs; mcs ]))

let test_table2_smoke () =
  let rows =
    X.lock_points ~experiment:"table2" ~topology:topo ~threads:[ 1; 8 ]
      ~duration:300_000 ~seed:1 small_locks (fun e -> X.Mmicro e.R.lock)
    |> X.run_points
  in
  let pairs lock n = X.metric "pairs_per_ms" (X.at rows lock n) in
  List.iter
    (fun (p, _) -> assert (pairs p.X.lock p.X.n_threads > 1.))
    rows;
  Alcotest.(check bool) "mmicro scales" true
    (pairs "C-BO-MCS" 8 > pairs "C-BO-MCS" 1)

(* A run ends at its window and counts only what completes inside it. A
   malloc-free pair takes two delays of at least 1.7 us, and an RW
   operation holds its lock for 150 ns, so a shorter window completes
   none of them; a longer one completes some. *)
(* One run of [workload] at 8 threads: its row's [metric]. *)
let one ~metric workload duration =
  X.lock_points ~experiment:"window" ~topology:topo ~threads:[ 8 ] ~duration
    ~seed:1 [ mcs ] (fun _ -> workload)
  |> List.hd |> X.run_point |> X.metric metric

let test_mmicro_window () =
  let pairs = one ~metric:"pairs_per_ms" (X.Mmicro mcs.R.lock) in
  Alcotest.(check (float 0.)) "no pair inside 1 us" 0. (pairs 1_000);
  Alcotest.(check bool) "pairs inside 50 us" true (pairs 50_000 > 0.)

let test_rw_window () =
  List.iter
    (fun use_rw ->
      let ops =
        one ~metric:"throughput" (X.Rw { use_rw; write_ratio = 0.5 })
      in
      Alcotest.(check (float 0.)) "no operation inside 100 ns" 0. (ops 100);
      Alcotest.(check bool) "operations inside 20 us" true (ops 20_000 > 0.))
    [ false; true ]

let test_ablation_handoff_smoke () =
  let e = command "ablation-handoff" in
  let t =
    match
      render e quiet
        { e.C.defaults with C.topology = topo; n_threads = 16;
          duration = 200_000; seed = 1 }
    with
    | [ (_, t) ] -> t
    | _ -> Alcotest.fail "ablation-handoff: expected one table"
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
  Alcotest.(check bool) "abortable" true
    (List.exists (fun e -> e.R.a_name = "A-CLH") R.abortable_locks)

let test_registry_expected_lineups () =
  (* 9 paper locks + the two successors (CNA, PTL). *)
  Alcotest.(check int) "fig2 has 11 locks" 11 (List.length R.microbench_locks);
  Alcotest.(check int) "fig6 has 4 locks" 4 (List.length R.abortable_locks);
  Alcotest.(check int) "tables have 13 locks" 13 (List.length R.app_locks);
  (* Every line-up's locks, then the 11 compositions the paper never
     names. *)
  Alcotest.(check int) "registry has 31 locks" 31 (List.length R.all_locks)

(* --- report -------------------------------------------------------------- *)

let test_fmt_si () =
  Alcotest.(check string) "millions" "6.40M" (Rep.fmt_si 6_400_000.);
  Alcotest.(check string) "thousands" "497.0k" (Rep.fmt_si 497_000.);
  Alcotest.(check string) "small" "0.32" (Rep.fmt_si 0.32);
  Alcotest.(check string) "tens" "42" (Rep.fmt_si 42.1)

let test_csv_roundtrip () =
  let csv =
    Rep.csv_of_series
      {
        Rep.t_title = "roundtrip";
        t_xlabel = "threads";
        t_columns = [ "A"; "B" ];
        t_rows = [ (1, [| 1.5; 2.5 |]); (2, [| 3.0; Float.nan |]) ];
        t_fmt = Rep.fmt_fixed2;
      }
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

let names es = List.map (fun e -> e.C.name) es

let test_catalogue_names_unique () =
  List.iter
    (fun (what, es) ->
      let ns = names es in
      Alcotest.(check int) what (List.length ns)
        (List.length (List.sort_uniq compare ns)))
    [ ("commands", C.commands); ("plan", C.plan) ]

(* [f ()] with stdout sent to a file: its result and what it printed. *)
let capture_stdout f =
  let path = Filename.temp_file "catalogue" ".out" in
  Format.print_flush ();
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    Format.print_flush ();
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let r = Fun.protect ~finally:restore f in
  let printed = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, printed)

(* Every entry under --csv-dir, --emit-bench-json and (if it takes it)
   --trace: every printed table is one CSV, and every CSV cell is, at
   printed precision, the metric of the artifact entry keyed (CSV name,
   x label, x). *)
let test_catalogue_entries_run () =
  let entries =
    List.filter (fun e -> not (List.mem e.C.name [ "all"; "quick" ])) C.commands
    @ List.filter (fun e -> not (List.mem e.C.name (names C.commands))) C.plan
  in
  List.iter
    (fun e ->
      let dir = Filename.temp_dir "catalogue" "" in
      let path = Filename.concat dir in
      let traced = List.mem C.Trace e.C.knobs in
      let p =
        { e.C.defaults with C.topology = Topology.small; threads = [ 1; 4 ];
          n_threads = 4; duration = 200_000 }
      in
      let (), printed =
        capture_stdout (fun () ->
            C.run ~csv_dir:dir ~emit:(path "bench.json")
              ?trace:(if traced then Some (path "trace.jsonl") else None)
              e p)
      in
      let read f = In_channel.with_open_bin (path f) In_channel.input_all in
      (* An entry with --trace records its runs, in the plan as alone. *)
      if traced then
        Alcotest.(check bool)
          (e.C.name ^ " traced") true (read "trace.jsonl" <> "");
      let artifact =
        match BJ.read (path "bench.json") with
        | Ok a -> a
        | Error msg -> Alcotest.fail msg
      in
      let entries = artifact.BJ.entries in
      (* profile and predict print a report and file no rows. *)
      Alcotest.(check bool) (e.C.name ^ " produced output") true
        (entries <> [] || List.length (String.split_on_char '\n' printed) > 2);
      let keys = List.map BJ.key_of entries in
      Alcotest.(check int) (e.C.name ^ " artifact keys unique")
        (List.length keys) (List.length (List.sort_uniq compare keys));
      let index = BJ.index artifact in
      let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let csvs = List.filter (fun f -> Filename.check_suffix f ".csv") files in
      let headers =
        String.split_on_char '\n' printed
        |> List.filter (fun l -> String.starts_with ~prefix:"=== " l)
      in
      Alcotest.(check int) (e.C.name ^ " one CSV per printed table")
        (List.length headers) (List.length csvs);
      if csvs <> [] then
        Alcotest.(check bool) (e.C.name ^ " takes --csv-dir") true
          (List.mem C.Csv e.C.knobs);
      List.iter
        (fun file ->
          let name = Filename.chop_suffix file ".csv" in
          let split line =
            match String.split_on_char ',' line with
            | x :: cells -> (x, cells)
            | [] -> assert false
          in
          match String.split_on_char '\n' (String.trim (read file)) with
          | header :: (_ :: _ as rows) ->
              let xlabel, columns = split header in
              List.iter
                (fun row ->
                  let x, cells = split row in
                  let key = Printf.sprintf "%s/%s/t%s" name xlabel x in
                  match Hashtbl.find_opt index key with
                  | None -> Alcotest.failf "%s: %s not in the artifact" file key
                  | Some en ->
                      let field column =
                        match List.assoc_opt column en.BJ.metrics with
                        | Some v when Float.is_nan v -> ""
                        | Some v -> Printf.sprintf "%.6g" v
                        | None -> Alcotest.failf "%s: no column %s" key column
                      in
                      Alcotest.(check (list string))
                        (key ^ " cells") cells (List.map field columns))
                rows
          | _ -> Alcotest.failf "%s: no rows" file)
        csvs;
      List.iter (fun f -> Sys.remove (path f)) files;
      Sys.rmdir dir)
    entries

(* --- bench_diff's gate --------------------------------------------------
   A table row's entry carries no gated metric, so comparing an artifact
   with itself must warn nothing; a missing entry, a gated metric on one
   side only, or a NaN still warns. The committed artifact holds both
   kinds of entry. *)

let test_compare_warnings () =
  let base =
    match BJ.read "../BENCH_0012.json" with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let has_tput e = List.mem_assoc "throughput" e.BJ.metrics in
  Alcotest.(check bool) "the artifact has table rows" true
    (List.exists (fun e -> not (has_tput e)) base.BJ.entries);
  let warnings ~baseline ~current =
    snd (BJ.compare_artifacts ~baseline ~current ~threshold_pct:5.)
  in
  Alcotest.(check (list string)) "self-compare warns nothing" []
    (warnings ~baseline:base ~current:base);
  let first = List.hd base.BJ.entries in
  Alcotest.(check (list string)) "a missing entry warns"
    [
      Printf.sprintf "baseline entry %s missing from current artifact"
        (BJ.key_of first);
    ]
    (warnings ~baseline:base
       ~current:{ base with BJ.entries = List.tl base.BJ.entries });
  let gated = List.find has_tput base.BJ.entries in
  let key = BJ.key_of gated in
  let with_gated f =
    let edit e = if BJ.key_of e = key then { e with BJ.metrics = f e } else e in
    { base with BJ.entries = List.map edit base.BJ.entries }
  in
  let strip e = List.remove_assoc "throughput" e.BJ.metrics in
  let stripped = with_gated strip in
  let nan = with_gated (fun e -> ("throughput", Float.nan) :: strip e) in
  let one = [ "metric throughput not comparable for " ^ key ] in
  Alcotest.(check (list string)) "current lacks the gated metric" one
    (warnings ~baseline:base ~current:stripped);
  Alcotest.(check (list string)) "baseline lacks the gated metric" one
    (warnings ~baseline:stripped ~current:base);
  Alcotest.(check (list string)) "a NaN warns" one
    (warnings ~baseline:base ~current:nan)

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
        Alcotest.test_case "migrations exact" `Quick
          test_lbench_migrations_exact;
        Alcotest.test_case "single thread clean" `Quick
          test_lbench_single_thread_zero_misses;
        Alcotest.test_case "critical section allocates no closure" `Quick
          test_lbench_alloc_per_acq;
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
        Alcotest.test_case "table1 cells independent" `Quick
          test_table1_cells_independent;
        Alcotest.test_case "table2 smoke" `Quick test_table2_smoke;
        Alcotest.test_case "mmicro counts its window" `Quick
          test_mmicro_window;
        Alcotest.test_case "rw counts its window" `Quick test_rw_window;
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
        Alcotest.test_case "bench_diff warnings" `Quick test_compare_warnings;
      ] );
  ]

let () = Alcotest.run "harness" suite
