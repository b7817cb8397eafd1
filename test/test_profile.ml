(* Coherence attribution profiler (lib/sim + lib/trace Profile).

   The first suite pins the exact per-site counter table for a tiny
   scripted 2-cluster workload: one shared cell that migrates between
   clusters and one private cell that never leaves its home cluster.
   The second pins the load-bearing invariant that profiling and
   coherence tracing are pure observation: a profiled (and traced) run
   is schedule-identical to a plain one — same end time, same event
   count, same engine-global coherence stats. The rest covers the
   coherence trace events the engine emits and the interconnect rollup,
   and re-states the paper claim (C-BO-MCS moves the lock word across
   clusters less than MCS) as a test. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module T = Numa_trace
module P = Numa_trace.Profile
module Ev = Numa_trace.Event
module LI = Cohort.Lock_intf
module LR = Harness.Lock_registry
module LB = Harness.Lbench

let topo = Topology.small (* 2 clusters x 4 threads *)

(* First tid the topology places on cluster 1. *)
let remote_tid =
  let rec find t =
    if Topology.cluster_of_thread topo t = 1 then t else find (t + 1)
  in
  find 0

(* The scripted workload. Thread 0 (cluster 0) initialises a shared cell
   and a private cell, then sleeps past the remote thread's visit and
   reads the shared cell back (a cache-to-cache transfer home). The
   remote thread (cluster 1) reads the shared cell (transfer), writes it
   (invalidating cluster 0's copy), and re-reads it (L1 hit). Pauses
   order the phases; everything else is a deterministic function of the
   coherence model. *)
let scenario ?profile ?trace () =
  let hot = M.cell' ~name:"prof.hot" 0 in
  let priv = M.cell' ~name:"prof.priv" 0 in
  E.run ~topology:topo ~n_threads:(remote_tid + 1) ?profile ?trace
    (fun ~tid ~cluster:_ ->
      if tid = 0 then begin
        M.write hot 1;
        ignore (M.read hot);
        M.write priv 1;
        ignore (M.read priv);
        M.pause 40_000;
        ignore (M.read hot);
        M.write priv 2
      end
      else if tid = remote_tid then begin
        M.pause 10_000;
        ignore (M.read hot);
        M.write hot 2;
        ignore (M.read hot)
      end)

let sites_of r =
  match r.E.profile.P.sites with
  | [] -> Alcotest.fail "profiled run returned no site table"
  | s -> s

let render (s : P.site) =
  Printf.sprintf "%s acc=%d l1=%d loc=%d xfer=%d mem=%d is=%d ir=%d rtx=%d"
    s.P.site s.P.s_accesses s.P.s_l1_hits s.P.s_local_hits
    s.P.s_remote_transfers s.P.s_memory_misses s.P.s_inval_sent
    s.P.s_inval_received s.P.s_remote_txns

(* --- exact per-site attribution ---------------------------------------- *)

let test_site_attribution () =
  let r = scenario ~profile:true () in
  let sites = sites_of r in
  Alcotest.(check (list string))
    "exact per-site counters"
    [
      (* shared cell: 6 accesses; the two cross-cluster reads are
         cache-to-cache transfers, the remote write invalidates the home
         cluster's copy, and the cold fill is the one memory miss. *)
      "prof.hot acc=6 l1=2 loc=0 xfer=2 mem=1 is=1 ir=1 rtx=3";
      (* private cell: never leaves cluster 0 — cold fill then L1 hits,
         zero remote traffic (memory fetches are not interconnect
         transactions in the model). *)
      "prof.priv acc=3 l1=2 loc=0 xfer=0 mem=1 is=0 ir=0 rtx=0";
    ]
    (List.map render sites);
  (* Each site allocated exactly one cell, so the distinct-line counter
     reads 1 — the footprint metric `repro profile --check` gates on. *)
  List.iter
    (fun s ->
      Alcotest.(check int) (s.P.site ^ " one distinct line") 1 s.P.s_lines)
    sites;
  (* Stall attribution: every access stalls somewhere; remote stall only
     where transfers happened. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.P.site ^ " has stall time") true
        (s.P.s_stall_local_ns + s.P.s_stall_remote_ns + s.P.s_stall_memory_ns
         + s.P.s_stall_interconnect_ns
        > 0);
      Alcotest.(check bool)
        (s.P.site ^ " remote stall iff remote traffic") true
        (s.P.s_stall_remote_ns > 0
        = (s.P.s_remote_transfers > 0 || s.P.s_inval_sent > 0)))
    sites;
  (* Site rows must tie out against the engine-global totals. *)
  let tot = r.E.profile.P.totals in
  let sum f = List.fold_left (fun a s -> a + f s) 0 sites in
  Alcotest.(check int) "accesses tie out" tot.P.accesses
    (sum (fun s -> s.P.s_accesses));
  Alcotest.(check int) "transfers tie out" tot.P.coherence_misses
    (sum (fun s -> s.P.s_remote_transfers));
  Alcotest.(check int) "invalidations tie out" tot.P.invalidations
    (sum (fun s -> s.P.s_inval_sent));
  Alcotest.(check int) "remote txns tie out" tot.P.remote_txns
    (sum (fun s -> s.P.s_remote_txns))

(* --- profiling/tracing is pure observation ------------------------------ *)

let test_profile_off_identical () =
  let plain = scenario () in
  let ring = T.Ring.create ~capacity:65_536 in
  let profiled = scenario ~profile:true ~trace:(T.Ring.sink ring) () in
  Alcotest.(check int) "end_time identical" plain.E.end_time
    profiled.E.end_time;
  Alcotest.(check int) "event count identical" plain.E.events
    profiled.E.events;
  Alcotest.(check bool) "coherence totals identical" true
    (plain.E.profile.P.totals = profiled.E.profile.P.totals);
  Alcotest.(check bool) "interconnect stats identical" true
    (plain.E.profile.P.icx = profiled.E.profile.P.icx);
  Alcotest.(check bool) "plain run has no site table" true
    (plain.E.profile.P.sites = []);
  Alcotest.(check bool) "trace captured coherence events" true
    (T.Ring.length ring > 0)

(* --- coherence trace events --------------------------------------------- *)

let test_coh_events () =
  let ring = T.Ring.create ~capacity:65_536 in
  let r = scenario ~trace:(T.Ring.sink ring) () in
  let events = T.Ring.events ring in
  let transfers, invals =
    List.partition_map
      (fun e ->
        match e.Ev.kind with
        | Ev.Coh_transfer { site; ns } -> Either.Left (e, site, ns)
        | Ev.Coh_invalidate { site; ns } -> Either.Right (e, site, ns)
        | k -> Alcotest.fail ("unexpected event kind " ^ Ev.kind_to_string k))
      events
  in
  (* The two cross-cluster reads of prof.hot emit transfers; the remote
     write emits the one invalidation. The private cell never crosses
     clusters, so it never appears in the coherence trace. *)
  Alcotest.(check int) "two transfer events" 2 (List.length transfers);
  Alcotest.(check int) "one invalidate event" 1 (List.length invals);
  List.iter
    (fun (e, site, ns) ->
      Alcotest.(check string) "event site" "prof.hot" site;
      Alcotest.(check bool) "event charges latency" true (ns > 0);
      Alcotest.(check bool) "tid in range" true
        (e.Ev.tid >= 0 && e.Ev.tid <= remote_tid);
      Alcotest.(check int) "cluster matches placement"
        (Topology.cluster_of_thread topo e.Ev.tid)
        e.Ev.cluster)
    (transfers @ invals);
  (* Emission is independent of --profile and bit-identical either way. *)
  let ring2 = T.Ring.create ~capacity:65_536 in
  ignore (scenario ~profile:true ~trace:(T.Ring.sink ring2) ());
  Alcotest.(check bool) "same events with profiling on" true
    (T.Ring.events ring2 = events);
  ignore r

(* --- interconnect rollup ------------------------------------------------ *)

let test_interconnect_stats () =
  let r = scenario () in
  let tot = r.E.profile.P.totals in
  Alcotest.(check int) "one channel acquisition per remote txn"
    tot.P.remote_txns r.E.profile.P.icx.P.txns;
  Alcotest.(check bool) "busy time accrued" true (r.E.profile.P.icx.P.busy_ns > 0);
  Alcotest.(check bool) "queue stats sane" true
    (r.E.profile.P.icx.P.queue_ns >= 0 && r.E.profile.P.icx.P.peak_queue >= 0)

(* --- the paper claim as a test ------------------------------------------ *)

(* Section 4's explanation of cohort speedups: the lock word (and queue
   nodes) migrate between clusters far less often under a cohort lock.
   The profiler must show C-BO-MCS strictly below plain MCS on remote
   transfers per acquisition — the same gate scripts/ci.sh runs via
   `repro profile --check`. *)
let test_cohort_beats_mcs_on_transfers () =
  let run name =
    let e = Option.get (LR.find name) in
    let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
    let r =
      LB.run ~name:e.LR.name e.LR.lock ~topology:Topology.t5440
        ~cfg:(e.LR.tweak cfg) ~n_threads:32 ~duration:500_000 ~seed:2024
        ~profile:true
    in
    let p = Option.get r.LB.profile in
    Alcotest.(check bool)
      (name ^ " site table populated")
      true (p.P.sites <> []);
    P.remote_transfers_per_acquire p ~acquires:r.LB.iterations
  in
  let mcs = run "MCS" and cohort = run "C-BO-MCS" in
  Alcotest.(check bool)
    (Printf.sprintf "C-BO-MCS (%.3f) < MCS (%.3f) transfers/acq" cohort mcs)
    true
    (cohort < mcs)

(* The successor claim (CNA paper, section 1): CNA delivers NUMA-aware
   handoff from a single extra word per lock, where a cohort lock pays
   for a whole second lock layer. Measured as distinct lock-metadata
   cache lines touched under the same workload — the second gate
   `repro profile --check` runs. *)
let test_cna_smaller_footprint_than_cohort () =
  let lines name =
    let e = Option.get (LR.find name) in
    let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
    let r =
      LB.run ~name:e.LR.name e.LR.lock ~topology:Topology.t5440
        ~cfg:(e.LR.tweak cfg) ~n_threads:32 ~duration:500_000 ~seed:2024
        ~profile:true
    in
    P.lock_lines (Option.get r.LB.profile)
  in
  let cna = lines "CNA" and cbm = lines "C-BO-MCS" in
  Alcotest.(check bool) "CNA footprint measured" true (cna > 0);
  Alcotest.(check bool)
    (Printf.sprintf "CNA (%d) < C-BO-MCS (%d) lock-metadata lines" cna cbm)
    true (cna < cbm)

let suite =
  [
    ( "attribution",
      [
        Alcotest.test_case "exact per-site counters" `Quick
          test_site_attribution;
        Alcotest.test_case "profiling is pure observation" `Quick
          test_profile_off_identical;
      ] );
    ( "trace",
      [ Alcotest.test_case "coherence events" `Quick test_coh_events ] );
    ( "interconnect",
      [ Alcotest.test_case "rollup" `Quick test_interconnect_stats ] );
    ( "paper-claim",
      [
        Alcotest.test_case "C-BO-MCS < MCS remote transfers/acq" `Quick
          test_cohort_beats_mcs_on_transfers;
        Alcotest.test_case "CNA < C-BO-MCS lock-metadata lines" `Quick
          test_cna_smaller_footprint_than_cohort;
      ] );
  ]

let () = Alcotest.run "profile" suite
