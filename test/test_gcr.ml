(* GCR (concurrency-restriction) suite: the admission-bound property on
   traced runs, explorer pins for the wrapper, the rotation-fairness
   bound, and golden pins for one saturation-collapse curve.

   The admission bound is THE invariant the wrapper sells: at every
   point of a run, the number of threads holding an active slot
   (Gcr_admit/Gcr_unpark minus Gcr_exit, counted over the lock's own
   trace stream) never exceeds [gcr_max_active], and a finished run has
   woken every parked thread (no lost wakeups across rotation). The
   qcheck property checks it over random (threads, k, rotate, seed);
   the explorer pins check it exhaustively on small schedules; the
   golden pins anchor the collapse experiment's exact outputs the same
   way test_golden.ml anchors the paper figures. *)

module R = Harness.Lock_registry
module X = Harness.Experiments
module LB = Harness.Lbench
module LI = Cohort.Lock_intf
module E = Numa_check.Explore
module V = Numa_check.Violation
module O = Numa_check.Oracle.Make (Numasim.Sim_mem)
module Sink = Numa_trace.Sink
module Event = Numa_trace.Event

let small = Numa_base.Topology.small
let gcr_mcs () = Option.get (R.find "GCR-MCS")

(* A GCR-MCS registry entry with [k]/[rotate] overrides and a sink. *)
let gcr_entry ?(wrap = Fun.id) ~k ~rotate sink =
  let base = gcr_mcs () in
  let e =
    {
      base with
      R.lock = wrap base.R.lock;
      tweak =
        (fun cfg ->
          {
            (base.R.tweak cfg) with
            LI.gcr_max_active = k;
            gcr_rotate_every = rotate;
          });
    }
  in
  R.with_trace sink e

(* A runtime that drains: the run goes on until every thread has
   finished, so blocked acquires are granted after the deadline instead
   of being cut at it. The deadline lives in its own flag, so the
   bodies wind down exactly where they would on [Sim_runtime], and the
   benchmark loop still counts only the grants before it. *)
module Draining = struct
  module S = Numasim.Sim_runtime

  let name = "sim-draining"
  let deterministic = true

  type stop_flag = { deadline : int option; mutable manual : bool }

  let request_stop f = f.manual <- true

  let stopped f =
    f.manual
    ||
    match f.deadline with
    | Some d -> Numasim.Sim_mem.now () >= d
    | None -> false

  type barrier = S.barrier

  let make_barrier = S.make_barrier
  let await = S.await
  let now = S.now

  let run ~topology ~n_threads ?stop_after ?profile body =
    let stop = { deadline = stop_after; manual = false } in
    S.run ~topology ~n_threads ?profile (fun ~stop:_ ~tid ~cluster ->
        body ~stop ~tid ~cluster)
end

module Drained = Harness.Bench_core.Make (Numasim.Sim_mem) (Draining)

(* The collapse workload on the draining loop: only it ends with a
   balanced stream ({!X.collapse_run} stops at the window). *)
let drained_collapse (e : R.entry) ~n_threads ~duration ~seed =
  let workload, cfg = X.collapse_workload e ~topology:small ~n_threads in
  Drained.run_workload workload ~name:e.R.name e.R.lock ~topology:small ~cfg
    ~n_threads ~duration ~seed

(* --- Admission bound, qcheck over traced runs --------------------------- *)

(* Replay the event stream: the counted active set stays within [0, k],
   park/unpark alternate per thread, and the drained run ends with an
   empty active set and an empty passive list. *)
let check_event_stream ~k evs =
  let active = ref 0 in
  let parked = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun ev ->
      match ev.Event.kind with
      | Event.Gcr_admit ->
          if Hashtbl.mem parked ev.Event.tid then ok := false;
          incr active;
          if !active > k then ok := false
      | Event.Gcr_unpark ->
          if not (Hashtbl.mem parked ev.Event.tid) then ok := false
          else Hashtbl.remove parked ev.Event.tid;
          incr active;
          if !active > k then ok := false
      | Event.Gcr_exit ->
          decr active;
          if !active < 0 then ok := false
      | Event.Gcr_park ->
          if Hashtbl.mem parked ev.Event.tid then ok := false
          else Hashtbl.add parked ev.Event.tid ()
      | _ -> ())
    evs;
  !ok && !active = 0 && Hashtbl.length parked = 0

let admission_bound_prop (n_threads, k, rotate, seed) =
  let events = ref [] in
  let sink = Sink.make (fun ev -> events := ev :: !events) in
  let e = gcr_entry ~k ~rotate sink in
  let r = drained_collapse e ~n_threads ~duration:200_000 ~seed in
  r.LB.iterations > 0 && check_event_stream ~k (List.rev !events)

(* QCheck2's ranges shrink inside themselves: a counterexample shrinks to
   a smaller valid point, never to an invalid thread count. *)
let admission_bound_qcheck =
  QCheck2.Test.make ~name:"admission bound holds on traced runs" ~count:25
    ~print:QCheck2.Print.(quad int int int int)
    QCheck2.Gen.(
      quad (int_range 6 40) (int_range 1 4) (int_range 1 8) (int_range 0 999))
    admission_bound_prop

(* --- Explorer: exhaustively clean, counts pinned ------------------------ *)

(* Same contract as test_explore.ml's deep pins: the schedule counts are
   pure functions of the wrapper's memory accesses and the latency
   model, so a drift means schedules changed. The explore scenario runs
   GCR-MCS at gcr_max_active = 1, gcr_rotate_every = 2, which forces
   parking, rotation and the drain rescue with only 3 threads. *)
let gcr_explore ~preemptions ~budget ~prune ~schedules ?pruned () =
  let sc = E.scenario (gcr_mcs ()).R.lock in
  let r = E.exhaustive ~preemptions ~budget ~prune sc in
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  (match r.E.failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "GCR-MCS: trace %s: %s"
        (Numa_check.Decision.to_string trace)
        (V.to_string v));
  Alcotest.(check int) "schedule count (golden)" schedules r.E.schedules;
  match pruned with
  | None -> ()
  | Some p -> Alcotest.(check int) "deviations pruned (golden)" p r.E.pruned

let gcr_deep_p1 =
  gcr_explore ~preemptions:1 ~budget:5_000 ~prune:false ~schedules:200

let gcr_deep_p2 =
  gcr_explore ~preemptions:2 ~budget:30_000 ~prune:false ~schedules:19081

let gcr_deep_p2_pruned =
  gcr_explore ~preemptions:2 ~budget:30_000 ~prune:true ~schedules:4793
    ~pruned:5951

(* --- Rotation fairness --------------------------------------------------- *)

(* Park-heavy run under the full GCR oracle (admission + the rotation
   starvation bound: a parked thread must be promoted within a
   queue-position-proportional number of rotation periods). A bound
   violation raises out of the run; on top of that, rotation must have
   actually happened, and the stream must balance. *)
let test_rotation_fairness () =
  let events = ref [] in
  let unparks = ref 0 in
  let sink =
    Sink.make (fun ev ->
        events := ev :: !events;
        match ev.Event.kind with
        | Event.Gcr_unpark -> incr unparks
        | _ -> ())
  in
  let checks = Numa_check.Oracle.for_lock "GCR-MCS" in
  let e = gcr_entry ~wrap:(O.wrap ~checks) ~k:1 ~rotate:2 sink in
  let r = drained_collapse e ~n_threads:24 ~duration:300_000 ~seed:7 in
  Alcotest.(check bool) "run made progress" true (r.LB.iterations > 0);
  Alcotest.(check bool) "rotation promoted parked threads" true (!unparks > 0);
  Alcotest.(check bool) "stream balanced at k=1" true
    (check_event_stream ~k:1 (List.rev !events))

(* --- Golden pins for one collapse curve ---------------------------------- *)

(* (lock, iterations, migrations) for collapse_run on small (8 contexts)
   at 64 threads (8x oversubscribed), 500 us, seed 2024. Exact pins,
   updated intentionally, never casually — plus the headline ordering:
   the GCR wrapper must beat the collapsed plain MCS by >= 2x. BO and TKT
   pin the plain spinner herds; BO's failed-CAS storms over a crowd of
   parked waiters are the stores whose wake scans the engine skips. *)
let collapse_golden =
  [ ("MCS", 26, 21); ("GCR-MCS", 996, 654); ("BO", 10, 3); ("TKT", 9, 6) ]

let collapse_golden_test (name, iters, migs) () =
  let e = Option.get (R.find name) in
  let r =
    X.collapse_run e ~topology:small ~n_threads:64 ~duration:500_000 ~seed:2024
  in
  if (r.LB.iterations, r.LB.migrations) <> (iters, migs) then
    Alcotest.failf
      "%s collapse golden pin drifted:\n\
      \  expected (iterations, migrations) = (%d, %d)\n\
      \  actual   (iterations, migrations) = (%d, %d)\n\
       Update only after an INTENTIONAL model or wrapper change\n\
       (CLAUDE.md), and record moved headline numbers in EXPERIMENTS.md."
      name iters migs r.LB.iterations r.LB.migrations

let test_collapse_ordering () =
  let run name =
    let e = Option.get (R.find name) in
    (X.collapse_run e ~topology:small ~n_threads:64 ~duration:500_000
       ~seed:2024)
      .LB.iterations
  in
  let mcs = run "MCS" and gcr = run "GCR-MCS" in
  Alcotest.(check bool)
    (Printf.sprintf "GCR-MCS (%d iters) >= 2x collapsed MCS (%d iters)" gcr
       mcs)
    true
    (gcr >= 2 * mcs)

(* --- The window cut -------------------------------------------------------- *)

(* A point that ends at its window must count exactly the grants the
   draining run stamps before the deadline: no event after the window can
   change a grant before it. *)
let check_same_counts ~(drained : LB.result) ~(cut : LB.result) =
  let same what f = Alcotest.(check int) what (f drained) (f cut) in
  same "iterations" (fun r -> r.LB.iterations);
  same "migrations" (fun r -> r.LB.migrations);
  Alcotest.(check (array int))
    "per-thread counts" drained.LB.per_thread cut.LB.per_thread;
  Alcotest.(check (list (float 0.)))
    "acquire p50/p99/max"
    [ drained.LB.acquire_p50; drained.LB.acquire_p99; drained.LB.acquire_max ]
    [ cut.LB.acquire_p50; cut.LB.acquire_p99; cut.LB.acquire_max ]

(* Every collapse lock, on the collapse workload 8x oversubscribed on 8
   contexts and on LBench's own loop 4x oversubscribed. The draining
   loop must also finish every blocked acquire without [Engine.Deadlock]
   (a liveness check the windowed points no longer make). *)
let test_window_cut (e : R.entry) () =
  let seed = 2024 in
  let n_threads = 64 and duration = 500_000 in
  check_same_counts
    ~drained:(drained_collapse e ~n_threads ~duration ~seed)
    ~cut:(X.collapse_run e ~topology:small ~n_threads ~duration ~seed);
  let n_threads = 32 and duration = 200_000 in
  let cfg = e.R.tweak (X.cfg_for small [ n_threads ]) in
  check_same_counts
    ~drained:
      (Drained.run e.R.lock ~topology:small ~cfg ~n_threads ~duration ~seed)
    ~cut:(LB.run e.R.lock ~topology:small ~cfg ~n_threads ~duration ~seed)

(* A collapse point's misses per CS cover its window: the run ends
   there, so the figure is the window's coherence misses over the grants
   it counted. Pinned for BO in capacity and 8x past it, in the result
   and in its artifact entry. *)
let collapse_misses_golden = [ (8, "2.08"); (64, "37.80") ]

let test_collapse_misses () =
  let e = Option.get (R.find "BO") in
  List.iter
    (fun (n_threads, expected) ->
      let r =
        X.collapse_run e ~topology:small ~n_threads ~duration:500_000
          ~seed:2024
      in
      let entry =
        Harness.Bench_json.entry_of_result ~experiment:"collapse" r
      in
      let show = Printf.sprintf "%.2f" in
      Alcotest.(check string)
        (Printf.sprintf "BO @ %d: misses_per_cs (golden)" n_threads)
        expected (show r.LB.misses_per_cs);
      Alcotest.(check string)
        (Printf.sprintf "BO @ %d: artifact misses_per_cs" n_threads)
        expected
        (show (List.assoc "misses_per_cs" entry.metrics)))
    collapse_misses_golden

let () =
  Alcotest.run "gcr"
    [
      ("admission", [ QCheck_alcotest.to_alcotest admission_bound_qcheck ]);
      ( "explore",
        [
          Alcotest.test_case "clean, preemptions=1" `Quick gcr_deep_p1;
          Alcotest.test_case "clean, preemptions=2" `Quick gcr_deep_p2;
          Alcotest.test_case "clean, preemptions=2 (pruned)" `Quick
            gcr_deep_p2_pruned;
        ] );
      ("fairness", [ Alcotest.test_case "rotation bound" `Quick test_rotation_fairness ]);
      ( "collapse_golden",
        Alcotest.test_case "GCR-MCS >= 2x MCS at 8x oversubscription" `Quick
          test_collapse_ordering
        :: List.map
             (fun (name, i, m) ->
               Alcotest.test_case (name ^ " pins") `Quick
                 (collapse_golden_test (name, i, m)))
             collapse_golden );
      ( "window_cut",
        List.map
          (fun (e : R.entry) ->
            Alcotest.test_case (e.R.name ^ " drains; window counts the same")
              `Quick (test_window_cut e))
          R.collapse_locks );
      ( "collapse_misses",
        [
          Alcotest.test_case "misses_per_cs covers the window" `Quick
            test_collapse_misses;
        ] );
    ]
