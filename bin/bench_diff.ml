(* Regression gate over two BENCH_*.json artifacts.

     dune exec bin/bench_diff.exe -- BASELINE CURRENT [--threshold PCT]

   Compares the gated higher-is-better metrics (throughput) of every
   (experiment, lock, threads) entry present in BASELINE against
   CURRENT. Exits 1 if any entry regressed by more than the threshold
   (default 10%), which is the check scripts/ci.sh runs against the
   newest committed artifact. Entries or metrics that cannot be compared
   (new locks, removed sweeps, null metrics) print as warnings and do
   not fail the gate.

   Coverage gate: every benchmarked registry lock (the microbench,
   abortable and collapse line-ups) must have at least one curve in
   BASELINE — a lock
   added to the registry without regenerating and committing a
   BENCH_*.json would otherwise silently dodge the perf trajectory.
   --allow-missing LOCK (repeatable) stages an intentional gap. *)

open Cmdliner
module BJ = Harness.Bench_json
module LR = Harness.Lock_registry

let load what path =
  match BJ.read path with
  | Ok t -> t
  | Error e ->
      Printf.eprintf "bench_diff: cannot read %s artifact %s: %s\n" what path e;
      exit 2

(* Informational (non-gating) rollup deltas, compared per metric where
   both entries carry it. Coherence traffic and prediction accuracy are
   model properties, so shifts here explain throughput moves rather
   than gate them. *)
let coh_metrics =
  [
    "coh_remote_transfers_per_acq";
    "coh_invalidations_per_release";
    "icx_queue_ns";
    "hold_p50_ns";
    "hold_p99_ns";
    "wait_p50_ns";
    "wait_p99_ns";
    "batch_p50";
    "pred_throughput";
    "pred_err";
  ]

let print_coherence_deltas (b : BJ.t) (c : BJ.t) =
  begin
    let index = Hashtbl.create 64 in
    List.iter
      (fun (e : BJ.entry) ->
        Hashtbl.replace index
          (Printf.sprintf "%s/%s/t%d" e.experiment e.lock e.threads)
          e)
      c.BJ.entries;
    let shown = ref 0 in
    List.iter
      (fun (be : BJ.entry) ->
        let key = Printf.sprintf "%s/%s/t%d" be.experiment be.lock be.threads in
        match Hashtbl.find_opt index key with
        | None -> ()
        | Some ce ->
            List.iter
              (fun metric ->
                match
                  ( List.assoc_opt metric be.BJ.metrics,
                    List.assoc_opt metric ce.BJ.metrics )
                with
                | Some bv, Some cv
                  when (not (Float.is_nan bv))
                       && (not (Float.is_nan cv))
                       && bv > 0.
                       && Float.abs ((cv -. bv) /. bv) > 0.05 ->
                    if !shown = 0 then
                      print_endline
                        "rollup deltas (informational, >5% shift, not gated):";
                    incr shown;
                    Printf.printf "  %-40s %-30s %.4g -> %.4g (%+.1f%%)\n" key
                      metric bv cv
                      ((cv -. bv) /. bv *. 100.)
                | _ -> ())
              coh_metrics)
      b.BJ.entries;
    if !shown > 0 then print_newline ()
  end

(* The registry locks the sim sweeps curve on every artifact-emitting
   run: new registry locks must appear in the committed baseline. The
   app-only and extra line-ups produce tables, not artifact curves, so
   they are out of scope. *)
let check_coverage (b : BJ.t) ~allow_missing ~path =
  let covered = Hashtbl.create 32 in
  List.iter
    (fun (e : BJ.entry) -> Hashtbl.replace covered e.BJ.lock ())
    b.BJ.entries;
  let expected =
    List.map (fun (e : LR.entry) -> e.LR.name) LR.microbench_locks
    @ List.map (fun (e : LR.abortable_entry) -> e.LR.a_name) LR.abortable_locks
    @ List.map (fun (e : LR.entry) -> e.LR.name) LR.collapse_locks
  in
  let missing =
    List.filter (fun name -> not (Hashtbl.mem covered name)) expected
  in
  let blocked, staged =
    List.partition (fun name -> not (List.mem name allow_missing)) missing
  in
  List.iter
    (Printf.printf "note: %s missing from baseline (allowed by \
                    --allow-missing)\n")
    staged;
  if blocked <> [] then begin
    List.iter
      (fun name ->
        Printf.eprintf
          "COVERAGE: registry lock %s has no curve in baseline %s\n" name path)
      blocked;
    Printf.eprintf
      "bench_diff: regenerate and commit the benchmark artifact (repro quick \
       --emit-bench-json BENCH_<next>.json), or stage intentionally with \
       --allow-missing LOCK\n";
    exit 1
  end

let run baseline current threshold allow_missing =
  let b = load "baseline" baseline in
  let c = load "current" current in
  if b.BJ.substrate <> c.BJ.substrate then
    Printf.printf "note: comparing %s baseline against %s current\n"
      b.BJ.substrate c.BJ.substrate;
  check_coverage b ~allow_missing ~path:baseline;
  print_coherence_deltas b c;
  let regressions, warnings =
    BJ.compare_artifacts ~baseline:b ~current:c ~threshold_pct:threshold
  in
  List.iter (fun w -> Printf.printf "warning: %s\n" w) warnings;
  Printf.printf "%d baseline entries, threshold %.1f%%: %d regression(s)\n"
    (List.length b.BJ.entries) threshold
    (List.length regressions);
  List.iter
    (fun (r : BJ.comparison) ->
      Printf.printf "  REGRESSION %-40s %-12s %.4g -> %.4g (%+.1f%%)\n" r.key
        r.metric r.baseline r.current r.delta_pct)
    regressions;
  if regressions <> [] then exit 1

let baseline =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BASELINE" ~doc:"Baseline artifact (committed BENCH_*.json).")

let current =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"CURRENT" ~doc:"Freshly generated artifact to gate.")

let threshold =
  let doc = "Fail on throughput drops larger than $(docv) percent." in
  Arg.(
    value
    & opt (Cli.bounded ~strict:false ~zero:0. "threshold" float) 10.0
    & info [ "threshold" ] ~docv:"PCT" ~doc)

let allow_missing =
  Arg.(
    value
    & opt_all string []
    & info [ "allow-missing" ] ~docv:"LOCK"
        ~doc:
          "Exempt $(docv) from the baseline coverage gate (repeatable) — for \
           intentionally staging a new registry lock before its first \
           committed artifact.")

let cmd =
  let doc = "compare two benchmark artifacts and fail on regressions" in
  Cmd.v (Cmd.info "bench_diff" ~doc)
    Term.(const run $ baseline $ current $ threshold $ allow_missing)

let () = exit (Cmd.eval cmd)
