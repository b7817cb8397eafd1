(* The analytic throughput oracle (lib/trace Predict + Harness.Gates).

   The first suite pins the closed-form arithmetic exactly: the
   serial/contended decomposition, the batch-mixed handoff cost and the
   artifact field names. The second is qcheck sanity: predictions are
   monotone in the transfer cost, decrease as cohort batches shrink, and
   collapse to the serial bound at one thread. The third pins the exact
   prediction for a real (scripted-seed) LBench run on the small
   2-cluster machine, end to end through Bench_core. The fourth checks
   that prediction is pure observation — a rolled-up (and therefore
   predicted) run returns the same measured numbers as a bare one, and
   same-seed artifacts render byte-identically. The last runs the CI
   error-band gate on the core curves (Gates.prediction_claim). *)

open Numa_base
module Pd = Numa_trace.Predict
module LB = Harness.Lbench
module LR = Harness.Lock_registry
module X = Harness.Experiments
module G = Harness.Gates
module BJ = Harness.Bench_json

let calib =
  { Pd.contexts = 8; local_ns = 20.; remote_ns = 125.; atomic_ns = 10. }

let predict ?(noncrit = 2000.) ?(n = 64) ?(hold = 100.) ?(batch = 1.)
    ?(icxq = 0.) ?measured () =
  Pd.predict ~calib ~noncrit_ns:noncrit ~n_threads:n ~hold_mean_ns:hold
    ~batch_p50:batch ~icx_queue_mean_ns:icxq ?measured ()

let feq = Alcotest.(check (float 1e-9))

(* --- closed forms ------------------------------------------------------- *)

let test_contended_bound () =
  (* batch 1: every handoff crosses the interconnect. *)
  let p = predict ~hold:100. ~batch:1. ~icxq:5. () in
  feq "handoff = remote + queue + atomic" 140. p.Pd.handoff_ns;
  feq "contended bound" (1e9 /. 240.) p.Pd.contended_bound;
  (* A long enough critical section makes the contended bound binding
     even against 8 contexts' worth of serial progress. *)
  let p = predict ~hold:500. ~batch:1. ~icxq:5. () in
  feq "saturated at 64 threads: min picks contended" p.Pd.contended_bound
    p.Pd.throughput;
  (* batch 4: one global transfer amortised over 4 acquisitions. *)
  let p = predict ~hold:100. ~batch:4. ~icxq:5. () in
  feq "batch-mixed handoff" ((0.25 *. 140.) +. (0.75 *. 30.)) p.Pd.handoff_ns

let test_serial_bound () =
  let p = predict ~n:1 ~hold:50. () in
  feq "serial bound = 1e9 / (hold + noncrit + acquire)"
    (1e9 /. (50. +. 2000. +. 30.))
    p.Pd.serial_bound;
  feq "one thread runs uncontended" p.Pd.serial_bound p.Pd.throughput;
  (* The serial bound scales with threads up to the context count and
     caps there. *)
  let p4 = predict ~n:4 ~hold:50. () in
  feq "4 threads: 4x the serial bound" (4. *. p.Pd.serial_bound)
    p4.Pd.serial_bound;
  let p8 = predict ~n:8 ~hold:50. () and p64 = predict ~n:64 ~hold:50. () in
  feq "serial bound capped at contexts" p8.Pd.serial_bound p64.Pd.serial_bound

let test_err_and_clamps () =
  let p = predict ~measured:(predict ()).Pd.throughput () in
  feq "exact prediction: zero error" 0. p.Pd.err;
  Alcotest.(check bool)
    "no measurement: nan error" true
    (Float.is_nan (predict ()).Pd.err);
  let m = (predict ()).Pd.throughput in
  Alcotest.(check bool)
    "overprediction: positive error" true
    ((predict ~measured:(m /. 2.) ()).Pd.err > 0.);
  (* nan / sub-1 batches clamp to 1 (no cohort batching observed). *)
  feq "nan batch = batch 1"
    (predict ~batch:Float.nan ()).Pd.handoff_ns
    (predict ~batch:1. ()).Pd.handoff_ns;
  feq "0 batch = batch 1"
    (predict ~batch:0. ()).Pd.handoff_ns
    (predict ~batch:1. ()).Pd.handoff_ns

let test_fields () =
  let p = predict ~measured:1e6 () in
  Alcotest.(check (list string))
    "artifact field names"
    [
      "pred_throughput"; "pred_err"; "pred_serial_bound";
      "pred_contended_bound"; "pred_service_ns"; "pred_handoff_ns";
    ]
    (List.map fst (Pd.to_fields p));
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) (k ^ " is finite") true (Float.is_finite v))
    (Pd.to_fields p)

(* --- qcheck sanity ------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let gen_inputs =
  QCheck.Gen.(
    let* hold = float_bound_exclusive 1000. in
    let* batch = float_range 1. 100. in
    let* icxq = float_bound_exclusive 100. in
    let* remote = float_range 20. 500. in
    return (hold, batch, icxq, remote))

let arb_inputs =
  QCheck.make gen_inputs ~print:(fun (h, b, q, r) ->
      Printf.sprintf "hold=%g batch=%g icxq=%g remote=%g" h b q r)

let with_remote remote = { calib with Pd.remote_ns = remote }

let prop_monotone_transfer =
  QCheck.Test.make ~name:"throughput non-increasing in transfer cost"
    ~count:500 arb_inputs (fun (hold, batch, icxq, remote) ->
      let run r =
        (Pd.predict ~calib:(with_remote r) ~noncrit_ns:2000. ~n_threads:64
           ~hold_mean_ns:hold ~batch_p50:batch ~icx_queue_mean_ns:icxq ())
          .Pd.throughput
      in
      run remote >= run (remote +. 50.))

let prop_monotone_batch =
  (* Longer cohort batches amortise the global transfer: with remote
     transfer at least as costly as a local one (every real topology),
     throughput is non-decreasing in the batch length. *)
  QCheck.Test.make ~name:"throughput non-decreasing in batch length"
    ~count:500 arb_inputs (fun (hold, batch, icxq, remote) ->
      let run b =
        (Pd.predict ~calib:(with_remote remote) ~noncrit_ns:2000. ~n_threads:64
           ~hold_mean_ns:hold ~batch_p50:b ~icx_queue_mean_ns:icxq ())
          .Pd.throughput
      in
      run (batch +. 1.) >= run batch)

let prop_serial_at_one =
  (* At one thread the loop's idle time dominates any handoff the
     generator can produce, so the serial bound is binding exactly. *)
  QCheck.Test.make ~name:"one thread collapses to the serial bound"
    ~count:500 arb_inputs (fun (hold, batch, icxq, remote) ->
      let p =
        Pd.predict ~calib:(with_remote remote) ~noncrit_ns:2000. ~n_threads:1
          ~hold_mean_ns:hold ~batch_p50:batch ~icx_queue_mean_ns:icxq ()
      in
      p.Pd.throughput = p.Pd.serial_bound)

(* --- end to end on the small machine ------------------------------------ *)

let small_run ?(rollup = true) () =
  let e = Option.get (LR.find "MCS") in
  let module L = (val e.LR.lock : Cohort.Lock_intf.LOCK) in
  let topo = Topology.small in
  let cfg =
    e.LR.tweak { Cohort.Lock_intf.default with clusters = 2; max_threads = 8 }
  in
  LB.run ~rollup (module L) ~topology:topo ~cfg ~n_threads:8
    ~duration:1_000_000 ~seed:42

let test_pinned_small () =
  let r = small_run () in
  let p =
    match r.LB.predicted with
    | Some p -> p
    | None -> Alcotest.fail "rolled-up sim run carries no prediction"
  in
  (* Exact pinned decomposition for MCS at 8 threads on the 2x4 small
     machine, 1 ms, seed 42 — update intentionally (a schedule or
     calibration change), never casually. *)
  let render =
    Printf.sprintf "tput=%.1f serial=%.1f contended=%.1f svc=%.2f hand=%.2f"
      p.Pd.throughput p.Pd.serial_bound p.Pd.contended_bound p.Pd.service_ns
      p.Pd.handoff_ns
  in
  Alcotest.(check string)
    "pinned prediction"
    "tput=2104717.1 serial=3376319.4 contended=2104717.1 svc=339.44 hand=135.68"
    render;
  Alcotest.(check bool)
    "prediction within 2x of measurement" true
    (Float.abs p.Pd.err < 1.)

let test_pure_observation () =
  (* The rollup/prediction machinery must not move a single measured
     number: a bare run and a rolled-up run agree on every field that
     does not come from the rollup itself. *)
  let bare = small_run ~rollup:false () and full = small_run () in
  Alcotest.(check bool) "bare run has no prediction" true
    (bare.LB.predicted = None);
  Alcotest.(check int) "iterations" bare.LB.iterations full.LB.iterations;
  Alcotest.(check (array int)) "per-thread" bare.LB.per_thread
    full.LB.per_thread;
  Alcotest.(check int) "migrations" bare.LB.migrations full.LB.migrations;
  feq "throughput" bare.LB.throughput full.LB.throughput;
  feq "acquire p99" bare.LB.acquire_p99 full.LB.acquire_p99;
  feq "misses/cs" bare.LB.misses_per_cs full.LB.misses_per_cs;
  (* And the artifact pipeline is deterministic including pred_* fields:
     same seed, byte-identical rendering. *)
  let artifact r =
    let path = Filename.temp_file "cohort_bench" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        BJ.write path
          (BJ.make ~substrate:"sim" ~seed:42
             [ BJ.entry_of_result ~experiment:"lbench" r ]);
        In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check string)
    "same-seed artifacts byte-identical" (artifact full)
    (artifact (small_run ()))

(* --- the CI error-band gate --------------------------------------------- *)

let test_error_band () =
  let locks =
    List.map (fun n -> Option.get (LR.find n)) G.pred_core_locks
  in
  let s =
    X.microbench_sweep ~locks ~rollup:true ~topology:Topology.t5440
      ~threads:G.pred_core_threads ~duration:2_000_000 ~seed:42 ()
  in
  let errs =
    List.concat
      (List.mapi
         (fun i _ ->
           Array.to_list s.X.cells.(i)
           |> List.map (fun (r : LB.result) ->
                  match r.LB.predicted with
                  | Some p -> 100. *. p.Pd.err
                  | None -> Float.nan))
         s.X.columns)
  in
  Alcotest.(check int)
    "all core points predicted"
    (List.length G.pred_core_locks * List.length G.pred_core_threads)
    (List.length (List.filter (fun e -> not (Float.is_nan e)) errs));
  match G.prediction_claim ~err_pcts:errs with
  | Ok msg -> Printf.printf "  %s\n" msg
  | Error msg -> Alcotest.fail ("prediction gate failed: " ^ msg)

let () =
  Alcotest.run "predict"
    [
      ( "formula",
        [
          Alcotest.test_case "contended bound" `Quick test_contended_bound;
          Alcotest.test_case "serial bound" `Quick test_serial_bound;
          Alcotest.test_case "error + clamps" `Quick test_err_and_clamps;
          Alcotest.test_case "artifact fields" `Quick test_fields;
        ] );
      ( "properties",
        [
          qtest prop_monotone_transfer;
          qtest prop_monotone_batch;
          qtest prop_serial_at_one;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "pinned small-machine prediction" `Quick
            test_pinned_small;
          Alcotest.test_case "pure observation" `Quick test_pure_observation;
        ] );
      ( "gate",
        [ Alcotest.test_case "core-curve error band" `Slow test_error_band ] );
    ]
