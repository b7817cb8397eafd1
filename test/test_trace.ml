(* Tests for lib/trace: the no-op sink leaves benchmark results
   untouched (the property that keeps golden pins valid by default), the
   ring captures the exact deterministic event sequence of a 2-cluster
   C-BO-MCS run, every registry lock stamps its events with the identity
   its handle was registered with, JSONL and Chrome exports round-trip through a schema
   check, the metrics rollup is self-consistent, and a native smoke run
   confirms events carry valid thread and cluster ids. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module LI = Cohort.Lock_intf
module T = Numa_trace
module Ev = Numa_trace.Event
module LR = Harness.Lock_registry
module LB = Harness.Lbench
module Table = Cohort.Cohort_locks.Make (M)
module C_bo_mcs = (val Table.get ~global:"BO" ~local:"MCS")

let topo = Topology.small (* 2 clusters x 4 threads *)

(* The canonical traced scenario: [n_threads] threads hammer one
   C-BO-MCS lock on the 2-cluster topology, all events captured. *)
let scenario ?(n_threads = 8) ?(iters = 25) () =
  let ring = T.Ring.create ~capacity:65_536 in
  let cfg =
    {
      LI.default with
      LI.clusters = topo.Topology.clusters;
      trace = T.Ring.sink ring;
    }
  in
  let l = C_bo_mcs.create cfg in
  ignore
    (E.run ~topology:topo ~n_threads (fun ~tid ~cluster ->
         let th = C_bo_mcs.register l ~tid ~cluster in
         for _ = 1 to iters do
           C_bo_mcs.acquire th;
           M.pause 100;
           C_bo_mcs.release th;
           M.pause 150
         done));
  T.Ring.events ring

let count p events = List.length (List.filter (fun e -> p e.Ev.kind) events)

(* An event names a fiber of the run and that fiber's placement: the
   identity the lock was handed at [register]. *)
let check_identity ~n_threads e =
  Alcotest.(check bool)
    "tid is a fiber of the run" true
    (e.Ev.tid >= 0 && e.Ev.tid < n_threads);
  Alcotest.(check int) "cluster matches placement"
    (Topology.cluster_of_thread topo e.Ev.tid)
    e.Ev.cluster
let count_kind k events = count (fun k' -> k' = k) events

let emit sink (e : Ev.t) =
  T.Sink.record sink ~at:e.at ~tid:e.tid ~cluster:e.cluster e.kind

(* --- default no-op sink: results unchanged ---------------------------- *)

let test_noop_disabled () =
  Alcotest.(check bool) "noop disabled" false (T.Sink.enabled T.Sink.noop);
  (* recording into noop is a no-op, not an error *)
  T.Sink.record T.Sink.noop ~at:0 ~tid:0 ~cluster:0 Ev.Acquire_global;
  Alcotest.(check bool)
    "tee with noop stays enabled" true
    (T.Sink.enabled (T.Sink.tee (T.Ring.sink (T.Ring.create ~capacity:8)) T.Sink.noop))

(* A traced LBench run must be indistinguishable (in simulated time)
   from the untraced one: same iterations, migrations, throughput and
   latency pins. This is what keeps test_golden valid regardless of
   tracing. *)
let test_noop_leaves_golden_unchanged () =
  let e = Option.get (LR.find "C-BO-MCS") in
  let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
  let run cfg =
    LB.run ~name:e.LR.name e.LR.lock ~topology:Topology.t5440
      ~cfg:(e.LR.tweak cfg) ~n_threads:32 ~duration:500_000 ~seed:2024
  in
  let plain = run cfg in
  let ring = T.Ring.create ~capacity:1_000_000 in
  let traced = run { cfg with LI.trace = T.Ring.sink ring } in
  Alcotest.(check bool) "trace captured something" true (T.Ring.events ring <> []);
  Alcotest.(check int) "iterations" plain.LB.iterations traced.LB.iterations;
  Alcotest.(check int) "migrations" plain.LB.migrations traced.LB.migrations;
  Alcotest.(check (float 0.)) "throughput" plain.LB.throughput traced.LB.throughput;
  Alcotest.(check (float 0.)) "p99" plain.LB.acquire_p99 traced.LB.acquire_p99

(* --- ring capture: deterministic event sequences ---------------------- *)

let kind_strings events = List.map (fun e -> Ev.kind_to_string e.Ev.kind) events

(* Alone, a cohort lock never forms a cohort: every cycle is a global
   acquire followed by a global handoff, exactly. *)
let test_single_thread_sequence () =
  let events = scenario ~n_threads:1 ~iters:3 () in
  Alcotest.(check (list string))
    "exact single-thread sequence"
    [
      "acquire_global"; "handoff_global";
      "acquire_global"; "handoff_global";
      "acquire_global"; "handoff_global";
    ]
    (kind_strings events);
  List.iter
    (fun e ->
      Alcotest.(check int) "tid" 0 e.Ev.tid;
      Alcotest.(check int) "cluster" (Topology.cluster_of_thread topo 0)
        e.Ev.cluster)
    events

(* Contended on 2 clusters: the event stream must describe a valid
   cohort history — every batch opens with a global acquire and closes
   with a global handoff, within-cohort handoffs pair with local
   acquires, acquires and releases strictly alternate, and batching
   actually happened. *)
let test_cohort_sequence () =
  let events = scenario () in
  Alcotest.(check bool) "nonempty" true (events <> []);
  (match events with
  | first :: _ ->
      Alcotest.(check string) "first event is a global acquire"
        "acquire_global"
        (Ev.kind_to_string first.Ev.kind)
  | [] -> ());
  let acq_l = count_kind Ev.Acquire_local events in
  let acq_g = count_kind Ev.Acquire_global events in
  let ho_c = count_kind Ev.Handoff_within_cohort events in
  let ho_g = count_kind Ev.Handoff_global events in
  Alcotest.(check int) "all acquisitions traced" (8 * 25) (acq_l + acq_g);
  Alcotest.(check int) "local acquires pair with cohort handoffs" ho_c acq_l;
  Alcotest.(check int) "global acquires pair with global handoffs" ho_g acq_g;
  Alcotest.(check bool) "cohort batching happened" true (ho_c > 0);
  Alcotest.(check int) "no aborts from a non-abortable lock" 0
    (count_kind Ev.Abort events);
  (* mutual exclusion as seen by the trace: acquire only when free,
     release (and starvation-limit marks) only while held *)
  let held = ref false in
  let prev = ref 0 in
  List.iter
    (fun e ->
      Alcotest.(check bool) "timestamps nondecreasing" true (e.Ev.at >= !prev);
      prev := e.Ev.at;
      check_identity ~n_threads:8 e;
      if Ev.is_acquire e.Ev.kind then begin
        Alcotest.(check bool) "acquire only when free" false !held;
        held := true
      end
      else if Ev.is_release e.Ev.kind then begin
        Alcotest.(check bool) "release only while held" true !held;
        held := false
      end
      else
        Alcotest.(check bool) "limit hit only while held" true !held)
    events;
  Alcotest.(check bool) "history ends released" false !held

(* The same check over every registry lock, contended on both clusters:
   [run cfg] drives one LBench run with [cfg]'s trace. *)
let test_registry_identity run () =
  let ring = T.Ring.create ~capacity:65_536 in
  run { (Harness.Experiments.cfg_for topo [ 8 ]) with trace = T.Ring.sink ring };
  Alcotest.(check bool) "events traced" true (T.Ring.events ring <> []);
  Alcotest.(check int) "ring dropped nothing" 0 (T.Ring.dropped ring);
  List.iter (check_identity ~n_threads:8) (T.Ring.events ring)

let identity_cases =
  List.map
    (fun (e : LR.entry) ->
      Alcotest.test_case e.LR.name `Quick
        (test_registry_identity (fun cfg ->
             ignore
               (LB.run e.LR.lock ~topology:topo ~cfg:(e.LR.tweak cfg)
                  ~n_threads:8 ~duration:200_000 ~seed:5))))
    LR.all_locks
  @ List.map
      (fun (e : LR.abortable_entry) ->
        Alcotest.test_case e.LR.a_name `Quick
          (test_registry_identity (fun cfg ->
               ignore
                 (LB.run_abortable e.LR.a_lock ~topology:topo
                    ~cfg:(e.LR.a_tweak cfg) ~n_threads:8 ~duration:200_000
                    ~seed:5 ~patience:20_000))))
      LR.abortable_locks

let test_sequence_deterministic () =
  let a = scenario () and b = scenario () in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  Alcotest.(check bool) "bit-identical event streams" true (a = b)

(* --- JSONL round-trip and schema -------------------------------------- *)

let test_jsonl_roundtrip () =
  let events = scenario ~n_threads:4 ~iters:5 () in
  let path = Filename.temp_file "cohort_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = T.Jsonl.to_file path in
      List.iter (emit sink) events;
      T.Sink.close sink;
      (* Every line of the file is one event object with the schema's
         fields. *)
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
      |> List.iter (fun line ->
             match T.Json.of_string line with
             | Error e -> Alcotest.fail ("line is not JSON: " ^ e)
             | Ok j ->
                 List.iter
                   (fun field ->
                     Alcotest.(check bool)
                       (Printf.sprintf "event has %S" field)
                       true
                       (Option.is_some (T.Json.member field j)))
                   [ "at"; "tid"; "cluster"; "kind" ]);
      match T.Jsonl.read_file path with
      | Error e -> Alcotest.fail ("read_file: " ^ e)
      | Ok back ->
          Alcotest.(check int) "same count" (List.length events)
            (List.length back);
          Alcotest.(check bool) "round-trips exactly" true (back = events))

(* --- Chrome trace_event schema ---------------------------------------- *)

(* The Chrome trace of [events] kept in a ring of [capacity], parsed
   back, and the note its writer returned. *)
let chrome ?(capacity = 65_536) events =
  let path = Filename.temp_file "cohort_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ring = T.Ring.create ~capacity in
      List.iter (emit (T.Ring.sink ring)) events;
      let note = T.Chrome.write path ring in
      match T.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> (j, note)
      | Error e -> Alcotest.fail ("chrome trace is not JSON: " ^ e))

let trace_events j =
  match T.Json.member "traceEvents" j with
  | Some (T.Json.List evs) -> evs
  | _ -> Alcotest.fail "no traceEvents list"

let test_chrome_schema () =
  let events = scenario () in
  let j, note = chrome events in
  Alcotest.(check (option string)) "nothing dropped, no note" None note;
  let evs = trace_events j in
  let slices =
    List.filter
      (fun ev ->
        match T.Json.member "ph" ev with
        | Some (T.Json.String "X") -> true
        | _ -> false)
      evs
  in
  Alcotest.(check int) "one complete slice per acquisition"
    (count Ev.is_acquire events)
    (List.length slices);
  List.iter
    (fun ev ->
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (Printf.sprintf "slice has %S" field)
            true
            (Option.is_some (T.Json.member field ev)))
        [ "name"; "ts"; "dur"; "pid"; "tid" ];
      match T.Json.member "pid" ev with
      | Some (T.Json.Int pid) ->
          Alcotest.(check bool) "pid is a cluster id" true
            (pid >= 0 && pid < topo.Topology.clusters)
      | _ -> Alcotest.fail "slice pid not an int")
    slices

(* A Chrome trace keeps the most recent [capacity] events; when it had
   to drop older ones, its writer says how many and where the full
   stream is. *)
let test_chrome_drop_note () =
  let events = scenario ~n_threads:1 ~iters:3 () in
  Alcotest.(check int) "three acquire-release pairs" 6 (List.length events);
  let j, note = chrome ~capacity:4 events in
  Alcotest.(check int) "the last two pairs kept" 2
    (List.length
       (List.filter
          (fun ev -> T.Json.member "ph" ev = Some (T.Json.String "X"))
          (trace_events j)));
  let tail =
    " keeps the last 4 of 6 events (2 dropped); a .jsonl trace keeps them all"
  in
  match note with
  | Some note when String.ends_with ~suffix:tail note -> ()
  | Some note -> Alcotest.failf "note %S does not end with %S" note tail
  | None -> Alcotest.fail "events dropped, but no note"

(* --- metrics rollup ----------------------------------------------------- *)

let test_metrics_rollup () =
  let events = scenario () in
  let m = T.Metrics.of_events ~wait_p50:Float.nan ~wait_p99:Float.nan events in
  Alcotest.(check int) "acquires" (count Ev.is_acquire events) m.T.Metrics.acquires;
  Alcotest.(check int) "acquires split" m.T.Metrics.acquires
    (m.T.Metrics.local_acquires + m.T.Metrics.global_acquires);
  Alcotest.(check int) "cohort handoffs" m.T.Metrics.local_acquires
    m.T.Metrics.handoffs_within_cohort;
  Alcotest.(check bool) "batch mean >= 1" true (m.T.Metrics.batch_mean >= 1.);
  Alcotest.(check bool) "batches formed" true
    (m.T.Metrics.batch_max >= 2 && m.T.Metrics.batches > 0);
  Alcotest.(check bool) "migration rate in [0,1]" true
    (m.T.Metrics.migration_rate >= 0. && m.T.Metrics.migration_rate <= 1.);
  Alcotest.(check bool) "hold times positive" true (m.T.Metrics.hold_p50 > 0.)

(* --- ownership timeline over hand-built windows ------------------------- *)

let ev at cluster kind = { Ev.at; tid = cluster; cluster; kind }

(* Clusters 0, 0 (one cohort tenure: a local handoff), 1, 0. *)
let test_batches () =
  let m =
    T.Metrics.of_events
      [
        ev 0 0 Ev.Acquire_global; ev 1 0 Ev.Handoff_within_cohort;
        ev 2 0 Ev.Acquire_local; ev 3 0 Ev.Handoff_global;
        ev 4 1 Ev.Acquire_global; ev 5 1 Ev.Handoff_global;
        ev 6 0 Ev.Acquire_global; ev 7 0 Ev.Handoff_global;
      ]
  in
  Alcotest.(check int) "batches" 3 m.T.Metrics.batches;
  Alcotest.(check int) "longest batch" 2 m.T.Metrics.batch_max;
  Alcotest.(check int) "migrations" 2 m.T.Metrics.migrations;
  Alcotest.(check (float 0.01)) "mean batch" (4. /. 3.) m.T.Metrics.batch_mean

let test_empty () =
  let m = T.Metrics.of_events [] in
  Alcotest.(check int) "no batches" 0 m.T.Metrics.batches;
  Alcotest.(check int) "no migrations" 0 m.T.Metrics.migrations;
  Alcotest.(check string) "blank timeline" (String.make 40 '.')
    (T.Metrics.render_timeline ~width:40 [])

(* The holder is painted from its acquire to the next release, across
   the other events in between; the rest of the window stays free. *)
let test_timeline () =
  Alcotest.(check string) "holder painted" "22222....."
    (T.Metrics.render_timeline ~width:10
       [
         ev 0 2 Ev.Acquire_global; ev 10 1 Ev.Enqueue;
         ev 40 2 Ev.Handoff_global; ev 100 1 Ev.Abort;
       ])

(* --- native smoke ------------------------------------------------------- *)

let test_native_smoke () =
  let ring = T.Ring.create ~capacity:1_000_000 in
  let e =
    LR.with_trace (T.Ring.sink ring)
      (Option.get (Harness.Native.Registry.find "C-BO-MCS"))
  in
  let clusters = 2 and domains = 4 in
  let topology =
    Topology.make ~name:"native" ~clusters ~threads_per_cluster:2
      Latency.t5440
  in
  let cfg = { LI.default with LI.clusters = clusters; max_threads = domains } in
  let r =
    Harness.Native.Bench.run ~name:e.LR.name e.LR.lock ~topology
      ~cfg:(e.LR.tweak cfg) ~n_threads:domains ~duration:20_000_000 ~seed:7
  in
  Alcotest.(check bool) "bench ran" true (r.Harness.Bench_core.iterations > 0);
  let events = T.Ring.events ring in
  Alcotest.(check bool) "events captured" true (events <> []);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "cluster id valid" true
        (ev.Ev.cluster >= 0 && ev.Ev.cluster < clusters);
      Alcotest.(check bool) "tid valid" true
        (ev.Ev.tid >= 0 && ev.Ev.tid < domains);
      Alcotest.(check bool) "timestamp sane" true (ev.Ev.at >= 0))
    events

let suite =
  [
    ( "sink",
      [
        Alcotest.test_case "noop disabled" `Quick test_noop_disabled;
        Alcotest.test_case "noop leaves golden results unchanged" `Quick
          test_noop_leaves_golden_unchanged;
      ] );
    ( "ring",
      [
        Alcotest.test_case "single-thread sequence" `Quick
          test_single_thread_sequence;
        Alcotest.test_case "2-cluster C-BO-MCS cohort sequence" `Quick
          test_cohort_sequence;
        Alcotest.test_case "deterministic" `Quick test_sequence_deterministic;
      ] );
    ("identity", identity_cases);
    ( "export",
      [
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "chrome trace_event schema" `Quick
          test_chrome_schema;
        Alcotest.test_case "chrome trace notes dropped events" `Quick
          test_chrome_drop_note;
        Alcotest.test_case "metrics rollup" `Quick test_metrics_rollup;
      ] );
    ( "trace",
      [
        Alcotest.test_case "batches" `Quick test_batches;
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "timeline" `Quick test_timeline;
      ] );
    ( "native",
      [ Alcotest.test_case "native smoke" `Quick test_native_smoke ] );
  ]

let () = Alcotest.run "trace" suite
