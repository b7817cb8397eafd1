(* Correctness tests for the baseline locks (HBO, HCLH, FC-MCS, Fib-BO,
   pthread-like), mirroring the core-lock suite. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module LI = Cohort.Lock_intf

let topo = Topology.small

module Hbo = Baselines.Hbo_lock.Make (M)
module Hclh = Baselines.Hclh_lock.Make (M)
module Fcmcs = Baselines.Fc_mcs.Make (M)
module Fibbo = Baselines.Fib_bo.Make (M)
module Pthread = Baselines.Pthread_like.Make (M)

let cfg =
  {
    LI.default with
    LI.clusters = topo.Topology.clusters;
    max_threads = Topology.total_threads topo;
  }

let exercise (module L : LI.LOCK) ~n_threads ~iters =
  let l = L.create cfg in
  let in_cs = ref 0 in
  let violations = ref 0 in
  let counts = Array.make n_threads 0 in
  ignore
    (E.run ~topology:topo ~n_threads (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to iters do
           L.acquire th;
           incr in_cs;
           if !in_cs <> 1 then incr violations;
           M.pause 80;
           if !in_cs <> 1 then incr violations;
           counts.(tid) <- counts.(tid) + 1;
           decr in_cs;
           L.release th;
           M.pause 120
         done));
  (!violations, Array.fold_left ( + ) 0 counts, counts)

let me_test name (module L : LI.LOCK) () =
  let violations, total, counts = exercise (module L) ~n_threads:8 ~iters:40 in
  Alcotest.(check int) (name ^ ": no ME violations") 0 violations;
  Alcotest.(check int) (name ^ ": all iterations") (8 * 40) total;
  Array.iteri
    (fun tid c ->
      Alcotest.(check int) (Printf.sprintf "%s: thread %d done" name tid) 40 c)
    counts

let reacquire_test name (module L : LI.LOCK) () =
  let l = L.create cfg in
  let ok = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:1 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 100 do
           L.acquire th;
           incr ok;
           L.release th
         done));
  Alcotest.(check int) (name ^ ": 100 reacquisitions") 100 !ok

let all_baselines : (string * (module LI.LOCK)) list =
  [
    ("HBO", (module Hbo.Lock));
    ("HCLH", (module Hclh));
    ("FC-MCS", (module Fcmcs));
    ("Fib-BO", (module Fibbo));
    ("pthread", (module Pthread));
  ]

(* A-HBO: abortable behaviour. *)

let test_ahbo_timeouts_and_recovers () =
  let l = Hbo.Abortable.create cfg in
  let aborts = ref 0 in
  let successes = ref 0 in
  let in_cs = ref 0 in
  let violations = ref 0 in
  let phase2 = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = Hbo.Abortable.register l ~tid ~cluster in
         for _ = 1 to 40 do
           if Hbo.Abortable.try_acquire th ~patience:300 then begin
             incr in_cs;
             if !in_cs <> 1 then incr violations;
             M.pause 400;
             if !in_cs <> 1 then incr violations;
             incr successes;
             decr in_cs;
             Hbo.Abortable.release th
           end
           else incr aborts;
           M.pause 50
         done;
         if Hbo.Abortable.try_acquire th ~patience:1_000_000_000 then begin
           incr phase2;
           Hbo.Abortable.release th
         end));
  Alcotest.(check int) "no violations" 0 !violations;
  Alcotest.(check bool) "aborts happened" true (!aborts > 0);
  Alcotest.(check bool) "successes happened" true (!successes > 0);
  Alcotest.(check int) "phase2 all acquire" 8 !phase2

(* HBO affinity: under contention, consecutive acquisitions tend to stay
   on the holder's cluster (shorter local backoff + cache residency). *)
let test_hbo_affinity () =
  let l = Hbo.Lock.create cfg in
  let last = ref (-1) in
  let migs = ref 0 in
  let acqs = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = Hbo.Lock.register l ~tid ~cluster in
         for _ = 1 to 40 do
           Hbo.Lock.acquire th;
           incr acqs;
           if !last <> cluster then begin
             incr migs;
             last := cluster
           end;
           M.pause 80;
           Hbo.Lock.release th;
           M.pause 120
         done));
  Alcotest.(check bool)
    (Printf.sprintf "some affinity (%d migrations / %d acqs)" !migs !acqs)
    true
    (!migs * 2 < !acqs)

(* FC-MCS combiner actually batches: with many same-cluster threads the
   global queue should see chains, i.e. fewer global swaps than acquires.
   We check indirectly: it must beat the migration rate of plain MCS. *)
let migrations (module L : LI.LOCK) =
  let l = L.create cfg in
  let last = ref (-1) in
  let migs = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 50 do
           L.acquire th;
           if !last <> cluster then begin
             incr migs;
             last := cluster
           end;
           M.pause 80;
           L.release th;
           M.pause 120
         done));
  !migs

module Mcs = Cohort.Mcs_lock.Make (M)

(* HCLH splices whole per-cluster batches into the global queue. *)
let test_hclh_batches () =
  let hclh = migrations (module Hclh) in
  let mcs = migrations (module Mcs.Plain) in
  Alcotest.(check bool)
    (Printf.sprintf "HCLH migrates less than MCS (%d < %d)" hclh mcs)
    true (hclh < mcs)

let test_fcmcs_batches () =
  let fc = migrations (module Fcmcs) in
  let mcs = migrations (module Mcs.Plain) in
  Alcotest.(check bool)
    (Printf.sprintf "FC-MCS migrates less than MCS (%d < %d)" fc mcs)
    true (fc < mcs)

let suite =
  [
    ( "mutual_exclusion",
      List.map
        (fun (n, l) -> Alcotest.test_case n `Quick (me_test n l))
        all_baselines );
    ( "reacquire",
      List.map
        (fun (n, l) -> Alcotest.test_case n `Quick (reacquire_test n l))
        all_baselines );
    ( "behaviour",
      [
        Alcotest.test_case "A-HBO timeouts" `Quick test_ahbo_timeouts_and_recovers;
        Alcotest.test_case "HBO affinity" `Quick test_hbo_affinity;
        Alcotest.test_case "FC-MCS batches" `Quick test_fcmcs_batches;
        Alcotest.test_case "HCLH batches" `Quick test_hclh_batches;
      ] );
  ]

let () = Alcotest.run "baselines" suite
