(* The benchmark harness: Bechamel microbenchmarks of native
   (Atomic-based) lock primitive costs, then every table and figure of the
   paper's evaluation on the simulated T5440 \u{2014} the same plan as
   [repro all] (Harness.Catalogue.plan).

     dune exec bench/main.exe            # repro all's parameters (~2 min)
     dune exec bench/main.exe -- quick   # the plan's quick parameters (~20 s)

   Extra flags:
     --emit-bench-json FILE   versioned BENCH artifact from the plan's
                              sweeps (sim results only \u{2014} deterministic,
                              byte-identical across same-seed runs)
     --trace FILE             lock-event trace of the runs; .jsonl
                              streams JSONL, anything else writes a
                              Chrome trace_event file
     --profile                per-site coherence attribution report for
                              the microbenchmark sweep
     --predict                predicted-vs-measured throughput for the
                              microbenchmark sweep
     --fastpath on|off        engine fast path (schedule-invisible)

   --profile and --predict only print: sweeps and artifacts are identical
   with and without them. The Bechamel section measures single-thread
   acquire+release latency of each lock over real atomics \u{2014} the
   low-contention overhead that Figure 4 shows must stay competitive. *)

open Bechamel
module C = Harness.Catalogue
module NR = Harness.Native.Registry
module LI = Cohort.Lock_intf

(* --- Bechamel: native uncontended lock cost ----------------------------- *)

let native_cycle_test (e : Harness.Lock_registry.entry) =
  let (module L : LI.LOCK) = e.lock in
  let l = L.create (e.tweak { LI.default with LI.clusters = 4; max_threads = 8 }) in
  Numa_native.Nat_mem.set_identity ~tid:0 ~cluster:0;
  let th = L.register l ~tid:0 ~cluster:0 in
  Test.make ~name:e.name
    (Staged.stage (fun () ->
         L.acquire th;
         L.release th))

(* The microbenchmark line-up plus the plain BO/TKT/CLH building blocks. *)
let native_tests =
  List.filter (fun (e : Harness.Lock_registry.entry) ->
      List.mem e.name [ "BO"; "TKT"; "CLH" ])
    NR.extra_locks
  @ NR.microbench_locks
  |> List.map native_cycle_test

let run_bechamel () =
  print_endline
    "=== Native uncontended acquire+release latency (Bechamel, ns/cycle) ===";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%8.1f" e
            | _ -> "       ?"
          in
          Printf.printf "  %-24s %s ns\n%!" name est)
        analyzed)
    native_tests;
  print_newline ()

let () =
  let rec parse (quick, trace, emit, profile, predict) = function
    | [] -> (quick, trace, emit, profile, predict)
    | "quick" :: rest -> parse (true, trace, emit, profile, predict) rest
    | "--trace" :: f :: rest ->
        parse (quick, Some f, emit, profile, predict) rest
    | "--emit-bench-json" :: f :: rest ->
        parse (quick, trace, Some f, profile, predict) rest
    | "--profile" :: rest -> parse (quick, trace, emit, true, predict) rest
    | "--predict" :: rest -> parse (quick, trace, emit, profile, true) rest
    (* The artifacts must be byte-identical either way (CI diffs them);
       the flag exists so that check is cheap to run. *)
    | "--fastpath" :: ("on" | "off" as v) :: rest ->
        Numasim.Engine.set_fastpath (v = "on");
        parse (quick, trace, emit, profile, predict) rest
    | a :: _ ->
        Printf.eprintf
          "unknown argument %S (expected: quick, --trace FILE, \
           --emit-bench-json FILE, --profile, --predict, --fastpath on|off)\n"
          a;
        exit 2
  in
  let quick, trace, emit, profile, predict =
    parse (false, None, None, false, false) (List.tl (Array.to_list Sys.argv))
  in
  run_bechamel ();
  let all = C.all ~quick in
  C.run ?trace ?emit ~profile ~predict all all.C.defaults
