(* The five workloads. Each one calls the public experiment functions a
   user runs ([Harness.Experiments], [Numa_check.Explore]) and turns
   their results into operations: one (lock, threads) point, one lock's
   exhaustive search, one fuzz campaign or one mutant check. Every
   operation carries a digest of its simulated outcome, so a rep can be
   checked against the warm-up rep operation by operation. *)

open Numa_base
module X = Harness.Experiments
module R = Harness.Lock_registry
module LI = Cohort.Lock_intf
module Kw = Apps.Kv_workload
module Ex = Numa_check.Explore
module Oracle = Numa_check.Oracle
module O = Oracle.Make (Numasim.Sim_mem)
module Mut = Numa_check.Mutants.Make (Numasim.Sim_mem)

type scale = Full | Smoke

(* How one rep runs. The timed reps use [plain]; the traced run flips one
   switch per A/B rep. *)
type variant = {
  rollup : bool;  (** [~rollup:true] on the LBench sweep. *)
  profile : bool;  (** [~profile:true] on the LBench sweep. *)
  oracle : bool;  (** every lock wrapped in its [Oracle.for_lock] checks. *)
  sink : Numa_trace.Sink.t;  (** lock-event sink, via [Lock_registry.with_trace]. *)
  traced : bool;
      (** split each experiment call into per-point calls under spans. *)
}

let plain =
  {
    rollup = false;
    profile = false;
    oracle = false;
    sink = Numa_trace.Sink.noop;
    traced = false;
  }

type op = { op_name : string; op_digest : string; op_error : string option }

type explore_tally = {
  schedules : int;  (** exhaustive schedules, registry locks and mutants. *)
  pruned : int;
  fuzz_runs : int;
  mutants_caught : int;
}

type payload =
  | Points of Harness.Lbench.result list
  | Cells of (string * float) list  (** (mix, speedup) per Table 1 cell. *)
  | Explored of explore_tally

type rep = {
  ops : op list;
  engine_events : int;  (** from the timed runtime; traced LBench reps only. *)
  payload : payload;
}

(* Variant switches a workload honours; the traced run makes an A/B rep
   only for these. *)
type knob = Rollup | Profile | Oracle

type t = {
  name : string;
  knobs : knob list;
  prepare : scale -> seed:int -> variant -> rep;
      (** builds the inputs (the set-up) and returns the rep function. *)
}

let entries v (base : R.entry list) =
  List.map
    (fun (e : R.entry) ->
      let e =
        if v.oracle then
          { e with lock = O.wrap ~checks:(Oracle.for_lock e.name) e.lock }
        else e
      in
      if Numa_trace.Sink.enabled v.sink then R.with_trace v.sink e else e)
    base

(* --- Operations and digests ----------------------------------------------- *)

let digest fields = Digest.to_hex (Digest.string (String.concat " " fields))
let hex = Printf.sprintf "%h"
(* Run one experiment call; an exception fails every operation it
   covers. *)
let guarded names f =
  match f () with
  | x -> Ok x
  | exception e ->
      let error = Some (Printexc.to_string e) in
      Error (List.map (fun op_name -> { op_name; op_digest = ""; op_error = error }) names)

let point_name lock n = Printf.sprintf "%s@%d" lock n

let point_op ~topology (r : Harness.Lbench.result) =
  {
    op_name = point_name r.lock_name r.n_threads;
    op_digest =
      digest
        ([
           r.lock_name;
           string_of_int r.n_threads;
           string_of_int r.iterations;
           string_of_int r.migrations;
           hex r.misses_per_cs;
           hex r.acquire_p50;
           hex r.acquire_p99;
           hex r.acquire_max;
         ]
        @ Array.to_list (Array.map string_of_int r.per_thread));
    op_error =
      (if r.n_threads <= Topology.total_threads topology && r.iterations = 0
       then Some "in-capacity point completed 0 iterations"
       else None);
  }

(* Smoke runs (the [runtest] check) do about 1/40 of the host work. *)
let scaled scale duration =
  match scale with Full -> duration | Smoke -> duration / 40

let topology = Topology.t5440

(* --- LBench (Figures 2-5) -------------------------------------------------- *)

(* The engine layer as seen from outside: a runtime that times each
   [run] call and sums the simulated events it reports. *)
module Timed_runtime = struct
  include Numasim.Sim_runtime

  let events = ref 0

  let run ~topology ~n_threads ?stop_after ?profile body =
    Spans.with_span "Sim_runtime.run" (fun () ->
        let s =
          Numasim.Sim_runtime.run ~topology ~n_threads ?stop_after ?profile
            body
        in
        events :=
          !events + Option.value s.Runtime_intf.sim_events ~default:0;
        s)
end

module Traced_core = Harness.Bench_core.Make (Numasim.Sim_mem) (Timed_runtime)

(* The traced path: one call per point, each under its own span, grouped
   per lock as the sweep functions loop. *)
let points_rep ~topology ~threads ~sweep ~point locks =
  let results =
    List.concat_map
      (fun (e : R.entry) ->
        Spans.with_span (sweep ^ " " ^ e.name) (fun () ->
            List.map
              (fun n ->
                guarded [ point_name e.name n ] (fun () ->
                    Spans.with_span (point_name e.name n) (fun () -> point e n)))
              threads))
      locks
  in
  let ok = List.filter_map Result.to_option results in
  {
    ops =
      List.concat_map
        (function Ok r -> [ point_op ~topology r ] | Error fs -> fs)
        results;
    engine_events = 0;
    payload = Points ok;
  }

(* The untraced path: one call of the sweep function users run. *)
let sweep_rep ~topology ~threads locks sweep =
  let names =
    List.concat_map
      (fun (e : R.entry) -> List.map (point_name e.name) threads)
      locks
  in
  match guarded names sweep with
  | Ok (s : X.sweep) ->
      let points = Array.to_list s.cells |> List.concat_map Array.to_list in
      {
        ops = List.map (point_op ~topology) points;
        engine_events = 0;
        payload = Points points;
      }
  | Error fs -> { ops = fs; engine_events = 0; payload = Points [] }

let lbench ~threads ~duration scale ~seed =
  let duration = scaled scale duration in
  fun v ->
    let locks = entries v R.microbench_locks in
    if v.traced then begin
      let cfg = X.cfg_for topology threads in
      let e0 = !Timed_runtime.events in
      let rep =
        points_rep ~topology ~threads ~sweep:"microbench_sweep" locks
          ~point:(fun (e : R.entry) n ->
            Traced_core.run ~name:e.name ~rollup:v.rollup ~profile:v.profile
              e.lock ~topology ~cfg:(e.tweak cfg) ~n_threads:n ~duration ~seed)
      in
      { rep with engine_events = !Timed_runtime.events - e0 }
    end
    else
      sweep_rep ~topology ~threads locks (fun () ->
          X.microbench_sweep ~locks ~rollup:v.rollup ~profile:v.profile
            ~topology ~threads ~duration ~seed ())

(* --- Saturation collapse (GCR concurrency restriction) ------------------- *)

let collapse ~threads ~smoke_threads ~duration scale ~seed =
  let duration = scaled scale duration in
  (* A rep's cost grows faster than the fiber count (every fiber must
     drain its blocked acquire after the window), so smoke runs use fewer
     fibers rather than a shorter window alone. *)
  let threads = match scale with Full -> threads | Smoke -> smoke_threads in
  fun v ->
    let locks = entries v R.collapse_locks in
    if v.traced then
      points_rep ~topology ~threads ~sweep:"collapse_sweep" locks
        ~point:(fun e n ->
          X.collapse_run e ~topology ~n_threads:n ~duration ~seed)
    else
      sweep_rep ~topology ~threads locks (fun () ->
          X.collapse_sweep ~locks ~topology ~threads ~duration ~seed ())

(* --- Table 1: KV store ----------------------------------------------------- *)

let mixes = [ ("read-heavy", Kw.read_heavy); ("write-heavy", Kw.write_heavy) ]

(* Table 1 cannot be split by point (each call normalises by its own
   pthread run), so even the traced rep makes one call per mix. *)
let kv ~threads ~duration scale ~seed =
  let duration = scaled scale duration in
  (* Each cell fills a 16k-key store whatever the window, so smoke runs
     keep only the first two locks. *)
  let line_up =
    match scale with
    | Full -> R.app_locks
    | Smoke -> List.filteri (fun i _ -> i < 2) R.app_locks
  in
  fun v ->
    let locks = entries v line_up in
    let cell_name tag lock n = Printf.sprintf "%s:%s" tag (point_name lock n) in
    let table (tag, mix) =
      let names =
        List.concat_map
          (fun (e : R.entry) -> List.map (cell_name tag e.name) threads)
          locks
      in
      Spans.with_span ("table1 " ^ tag) (fun () ->
          match
            guarded names (fun () ->
                X.table1 ~locks ~topology ~threads ~duration ~seed ~mix ())
          with
          | Error fs -> (fs, [])
          | Ok t ->
              let cs =
                List.concat_map
                  (fun (n, row) ->
                    List.mapi (fun i lock -> (lock, n, row.(i))) t.X.t_columns)
                  t.X.t_rows
              in
              ( List.map
                  (fun (lock, n, s) ->
                    {
                      op_name = cell_name tag lock n;
                      op_digest = digest [ tag; lock; string_of_int n; hex s ];
                      op_error =
                        (if s > 0. then None
                         else Some "in-capacity point completed 0 operations");
                    })
                  cs,
                List.map (fun (_, _, s) -> (tag, s)) cs ))
    in
    let parts = List.map table mixes in
    {
      ops = List.concat_map fst parts;
      engine_events = 0;
      payload = Cells (List.concat_map snd parts);
    }

(* --- Schedule exploration -------------------------------------------------- *)

let explore ~fuzz_runs scale ~seed =
  (* Smoke runs search the registry locks with one preemption; mutants
     always get two, which the late-reset bug needs. *)
  let preemptions, fuzz_runs =
    match scale with Full -> (2, fuzz_runs) | Smoke -> (1, fuzz_runs / 40)
  in
  let registry =
    List.map
      (fun (e : R.entry) ->
        (e.name, Ex.scenario e.lock, Ex.scenario ~n_threads:4 ~sections:4 e.lock))
      R.microbench_locks
  in
  let mutants =
    List.map
      (fun (module L : LI.LOCK) -> (L.name, Ex.scenario (module L : LI.LOCK)))
      Mut.all
  in
  fun (_ : variant) ->
    let tally =
      ref { schedules = 0; pruned = 0; fuzz_runs = 0; mutants_caught = 0 }
    in
    let verdict = function
      | None -> "clean"
      | Some (_, (v : Numa_check.Violation.t)) -> v.invariant
    in
    let search name ~mutant sc =
      let op_name = (if mutant then "mutant:" else "exhaustive:") ^ name in
      Spans.with_span op_name (fun () ->
          let preemptions = if mutant then 2 else preemptions in
          match guarded [ op_name ] (fun () -> Ex.exhaustive ~preemptions ~prune:true sc) with
          | Error fs -> fs
          | Ok r ->
              let t = !tally in
              tally :=
                {
                  t with
                  schedules = t.schedules + r.schedules;
                  pruned = t.pruned + r.pruned;
                  mutants_caught =
                    (t.mutants_caught
                    + if mutant && r.failure <> None then 1 else 0);
                };
              let error =
                match (mutant, r.failure) with
                | true, None -> Some "mutant escaped"
                | true, Some _ -> None
                | false, Some (_, v) ->
                    Some (Numa_check.Violation.to_string v)
                | false, None when not r.exhausted ->
                    Some "search stopped before it was exhausted"
                | false, None -> None
              in
              [
                {
                  op_name;
                  op_digest =
                    digest
                      [
                        op_name;
                        string_of_int r.schedules;
                        string_of_int r.pruned;
                        string_of_bool r.exhausted;
                        verdict r.failure;
                      ];
                  op_error = error;
                };
              ])
    in
    let fuzz name sc =
      let op_name = "fuzz:" ^ name in
      Spans.with_span op_name (fun () ->
          match guarded [ op_name ] (fun () -> Ex.fuzz ~seed ~runs:fuzz_runs sc) with
          | Error fs -> fs
          | Ok r ->
              tally := { !tally with fuzz_runs = !tally.fuzz_runs + r.fuzz_runs };
              [
                {
                  op_name;
                  op_digest =
                    digest
                      [ op_name; string_of_int r.fuzz_runs; verdict r.fuzz_failure ];
                  op_error =
                    Option.map
                      (fun (_, v) -> Numa_check.Violation.to_string v)
                      r.fuzz_failure;
                };
              ])
    in
    let ops =
      List.concat_map
        (fun (name, sc3, sc4) ->
          Spans.with_span name (fun () ->
              search name ~mutant:false sc3 @ fuzz name sc4))
        registry
      @ Spans.with_span "mutants" (fun () ->
            List.concat_map (fun (name, sc) -> search name ~mutant:true sc) mutants)
    in
    { ops; engine_events = 0; payload = Explored !tally }

(* --- The line-up ----------------------------------------------------------- *)

(* Why each workload is here: BENCHMARK.json and README.md. *)
let all =
  [
    {
      name = "lbench-contended";
      knobs = [ Rollup; Profile; Oracle ];
      prepare = lbench ~threads:[ 64; 256 ] ~duration:6_000_000;
    };
    {
      name = "lbench-uncontended";
      knobs = [ Rollup; Profile; Oracle ];
      prepare = lbench ~threads:[ 1 ] ~duration:500_000_000;
    };
    {
      name = "collapse-oversub";
      knobs = [ Oracle ];
      prepare = collapse ~threads:[ 1024 ] ~smoke_threads:[ 384 ] ~duration:1_000_000;
    };
    {
      name = "kv-mixes";
      knobs = [ Oracle ];
      prepare = kv ~threads:[ 32; 128 ] ~duration:1_500_000;
    };
    {
      name = "explore-p2";
      knobs = [];
      prepare = explore ~fuzz_runs:1_500;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
