(* Correctness tests for every lock in the core library, run against the
   simulated memory substrate. Mutual exclusion is checked by observing
   overlap in simulated time; deadlocks surface as Engine.Deadlock. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module LI = Cohort.Lock_intf

let topo = Topology.small (* 2 clusters x 4 threads *)

(* Instantiate every lock against the simulator. *)
module Bo = Cohort.Bo_lock.Make (M)
module Tkt = Cohort.Ticket_lock.Make (M)
module Mcs = Cohort.Mcs_lock.Make (M)
module Clh = Cohort.Clh_lock.Make (M)
module Table = Cohort.Cohort_locks.Make (M)
module C_bo_mcs = (val Table.get ~global:"BO" ~local:"MCS")
module C_tkt_mcs = (val Table.get ~global:"TKT" ~local:"MCS")
module Cna = Cohort.Cna_lock.Make (M)
module Ptl = Cohort.Ptl_lock.Make (M)
module Aclh = Cohort.Aclh_lock.Make (M)
module A_c_bo_bo = (val Table.a_c_bo_bo)
module A_c_bo_clh = (val Table.a_c_bo_clh)

let cfg = { LI.default with LI.clusters = topo.Topology.clusters }

(* Run [n_threads] x [iters] lock/unlock cycles; returns (violations,
   completed iterations, per-thread counts). The in-CS flag is a plain ref:
   the simulation is single-threaded, so overlap in simulated time shows
   up as in_cs <> 1 at a check separated from the increment by a pause. *)
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

let all_locks : (string * (module LI.LOCK)) list =
  [
    ("BO", (module Bo.Plain));
    ("TKT", (module Tkt.Plain));
    ("MCS", (module Mcs.Plain));
    ("CLH", (module Clh.Plain));
    ("C-BO-BO", Table.get ~global:"BO" ~local:"BO");
    ("C-TKT-TKT", Table.get ~global:"TKT" ~local:"TKT");
    ("C-BO-MCS", (module C_bo_mcs));
    ("C-TKT-MCS", (module C_tkt_mcs));
    ("C-MCS-MCS", Table.get ~global:"MCS" ~local:"MCS");
    ("CNA", (module Cna.Plain));
    ("PTL", (module Ptl.Plain));
  ]

(* --- single-thread reacquisition -------------------------------------- *)

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

(* --- two threads alternating ------------------------------------------ *)

let alternation_test name (module L : LI.LOCK) () =
  (* With 2 threads and a fair-ish lock, both must make progress. *)
  let violations, total, counts = exercise (module L) ~n_threads:2 ~iters:50 in
  Alcotest.(check int) (name ^ ": no violations") 0 violations;
  Alcotest.(check int) (name ^ ": total") 100 total;
  Alcotest.(check bool) (name ^ ": both progress") true
    (counts.(0) = 50 && counts.(1) = 50)

(* --- determinism -------------------------------------------------------- *)

let test_lock_determinism () =
  let run () =
    let l = C_bo_mcs.create cfg in
    let log = Buffer.create 256 in
    ignore
      (E.run ~topology:topo ~n_threads:6 (fun ~tid ~cluster ->
           let th = C_bo_mcs.register l ~tid ~cluster in
           for _ = 1 to 20 do
             C_bo_mcs.acquire th;
             Buffer.add_string log (string_of_int tid);
             C_bo_mcs.release th;
             M.pause 90
           done));
    Buffer.contents log
  in
  Alcotest.(check string) "same acquisition order" (run ()) (run ())

(* --- cohort batching ----------------------------------------------------- *)

(* Under contention a cohort lock should hand off locally: consecutive
   acquisitions from the same cluster, i.e. far fewer migrations than a
   fair NUMA-oblivious lock. *)
let migrations (module L : LI.LOCK) ~max_local_handoffs =
  let cfg = { cfg with LI.max_local_handoffs } in
  let l = L.create cfg in
  let last_cluster = ref (-1) in
  let migs = ref 0 in
  let acqs = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 50 do
           L.acquire th;
           incr acqs;
           if !last_cluster <> cluster then begin
             incr migs;
             last_cluster := cluster
           end;
           M.pause 80;
           L.release th;
           M.pause 120
         done));
  (!migs, !acqs)

let test_cohort_batches () =
  let migs_cohort, acqs = migrations (module C_bo_mcs) ~max_local_handoffs:64 in
  let migs_mcs, _ = migrations (module Mcs.Plain) ~max_local_handoffs:64 in
  Alcotest.(check int) "acquisitions" 400 acqs;
  Alcotest.(check bool)
    (Printf.sprintf "cohort migrates less (%d < %d)" migs_cohort migs_mcs)
    true
    (migs_cohort < migs_mcs / 2)

let test_handoff_bound_forces_migration () =
  (* With a tiny handoff budget the lock must migrate regularly; with a
     huge one it may batch almost indefinitely. This needs a FAIR global
     lock (ticket): with a global BO lock the releasing cluster re-wins
     the race thanks to cache residency — the C-BO-MCS unfairness the
     paper reports in Figure 5 — and the bound alone forces nothing. *)
  let migs_small, _ = migrations (module C_tkt_mcs) ~max_local_handoffs:2 in
  let migs_large, _ = migrations (module C_tkt_mcs) ~max_local_handoffs:1000 in
  Alcotest.(check bool)
    (Printf.sprintf "budget 2 migrates more (%d > %d)" migs_small migs_large)
    true (migs_small > migs_large)

let test_fair_lock_balances () =
  (* Ticket lock: per-thread iteration counts are all equal by FIFO. *)
  let _, _, counts = exercise (module Tkt.Plain) ~n_threads:8 ~iters:40 in
  Array.iter (fun c -> Alcotest.(check int) "equal share" 40 c) counts

(* --- successor locks ----------------------------------------------------- *)

let test_cna_batches () =
  (* CNA reorders the MCS queue to hand off within the socket: under the
     same contention it must migrate far less than plain MCS. *)
  let migs_cna, acqs = migrations (module Cna.Plain) ~max_local_handoffs:64 in
  let migs_mcs, _ = migrations (module Mcs.Plain) ~max_local_handoffs:64 in
  Alcotest.(check int) "acquisitions" 400 acqs;
  Alcotest.(check bool)
    (Printf.sprintf "CNA migrates less (%d < %d)" migs_cna migs_mcs)
    true
    (migs_cna < migs_mcs / 2)

let test_cna_flush_bound_forces_migration () =
  (* The counted flush (stand-in for the C version's 1/256 coin) must
     actually fire: a tiny budget migrates much more than a huge one. *)
  let migs_small, _ = migrations (module Cna.Plain) ~max_local_handoffs:2 in
  let migs_large, _ = migrations (module Cna.Plain) ~max_local_handoffs:1000 in
  Alcotest.(check bool)
    (Printf.sprintf "budget 2 migrates more (%d > %d)" migs_small migs_large)
    true (migs_small > migs_large)

let test_ptl_balances () =
  (* PTL is strict global FIFO (ticket semantics over partitioned slots):
     per-thread counts come out exactly equal. *)
  let _, _, counts = exercise (module Ptl.Plain) ~n_threads:8 ~iters:40 in
  Array.iter (fun c -> Alcotest.(check int) "equal share" 40 c) counts

let test_ptl_more_threads_than_slots () =
  (* Slot reuse: 8 threads over a 4-slot array (t mod n wraps) must stay
     safe and complete. *)
  let cfg = { cfg with LI.max_threads = 4 } in
  let l = Ptl.Plain.create cfg in
  let in_cs = ref 0 in
  let violations = ref 0 in
  let total = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = Ptl.Plain.register l ~tid ~cluster in
         for _ = 1 to 30 do
           Ptl.Plain.acquire th;
           incr in_cs;
           if !in_cs <> 1 then incr violations;
           M.pause 80;
           if !in_cs <> 1 then incr violations;
           incr total;
           decr in_cs;
           Ptl.Plain.release th;
           M.pause 120
         done));
  Alcotest.(check int) "no ME violations with slot wrap" 0 !violations;
  Alcotest.(check int) "all iterations" (8 * 30) !total

(* --- abortable locks ----------------------------------------------------- *)

let abortable_me_test name (module L : LI.ABORTABLE_LOCK) () =
  (* Generous patience: everything must succeed, mutual exclusion holds. *)
  let l = L.create cfg in
  let in_cs = ref 0 in
  let violations = ref 0 in
  let successes = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 30 do
           if L.try_acquire th ~patience:100_000_000 then begin
             incr in_cs;
             if !in_cs <> 1 then incr violations;
             M.pause 80;
             if !in_cs <> 1 then incr violations;
             incr successes;
             decr in_cs;
             L.release th
           end;
           M.pause 120
         done));
  Alcotest.(check int) (name ^ ": no violations") 0 !violations;
  Alcotest.(check int) (name ^ ": all succeed") (8 * 30) !successes

let abortable_timeout_test name (module L : LI.ABORTABLE_LOCK) () =
  (* Phase 1: hammer with tiny patience so aborts happen. Phase 2: every
     thread must still be able to acquire — the regression test for a
     stranded global lock after mass aborts. *)
  let l = L.create cfg in
  let aborts = ref 0 in
  let successes = ref 0 in
  let in_cs = ref 0 in
  let violations = ref 0 in
  let phase2_ok = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 40 do
           if L.try_acquire th ~patience:300 then begin
             incr in_cs;
             if !in_cs <> 1 then incr violations;
             M.pause 400;
             if !in_cs <> 1 then incr violations;
             incr successes;
             decr in_cs;
             L.release th
           end
           else incr aborts;
           M.pause 50
         done;
         (* Phase 2: generous patience. *)
         if L.try_acquire th ~patience:1_000_000_000 then begin
           incr in_cs;
           if !in_cs <> 1 then incr violations;
           M.pause 100;
           if !in_cs <> 1 then incr violations;
           incr phase2_ok;
           decr in_cs;
           L.release th
         end));
  Alcotest.(check int) (name ^ ": no violations") 0 !violations;
  Alcotest.(check bool) (name ^ ": some aborts happened") true (!aborts > 0);
  Alcotest.(check bool) (name ^ ": some successes") true (!successes > 0);
  Alcotest.(check int) (name ^ ": phase 2 all acquire") 8 !phase2_ok

let abortable_zero_patience_test name (module L : LI.ABORTABLE_LOCK) () =
  (* patience 0 while the lock is held must fail quickly and leave the
     lock healthy. *)
  let l = L.create cfg in
  let holder_done = M.cell' false in
  let refused = ref false in
  let finally = ref false in
  ignore
    (E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         if tid = 0 then begin
           Alcotest.(check bool) "holder acquires" true
             (L.try_acquire th ~patience:1_000_000);
           M.pause 5_000;
           L.release th;
           M.write holder_done true
         end
         else begin
           M.pause 1_000;
           (* lock is held right now *)
           refused := not (L.try_acquire th ~patience:0);
           if not !refused then L.release th;
           ignore (M.wait_until holder_done (fun b -> b));
           if L.try_acquire th ~patience:1_000_000 then begin
             finally := true;
             L.release th
           end
         end));
  Alcotest.(check bool) (name ^ ": zero patience refused") true !refused;
  Alcotest.(check bool) (name ^ ": lock usable after") true !finally

let all_abortable : (string * (module LI.ABORTABLE_LOCK)) list =
  [
    ("A-CLH", (module Aclh.Abortable));
    ("A-C-BO-BO", (module A_c_bo_bo));
    ("A-C-BO-CLH", (module A_c_bo_clh));
  ]

(* --- backoff ------------------------------------------------------------- *)

let test_backoff_growth () =
  let b = Cohort.Backoff.make ~min:100 ~max:10_000 ~salt:1 () in
  let d1 = Cohort.Backoff.next b in
  let rec go last n =
    if n = 0 then last
    else
      let d = Cohort.Backoff.next b in
      go (max last d) (n - 1)
  in
  let dmax = go d1 20 in
  Alcotest.(check bool) "first delay near min" true (d1 >= 50 && d1 <= 100);
  Alcotest.(check bool) "grows toward max" true (dmax > 1_000);
  Alcotest.(check bool) "bounded by max" true (dmax <= 10_000)

let test_backoff_reset () =
  let b = Cohort.Backoff.make ~min:100 ~max:10_000 ~salt:2 () in
  for _ = 1 to 10 do
    ignore (Cohort.Backoff.next b)
  done;
  Cohort.Backoff.reset b;
  let d = Cohort.Backoff.next b in
  Alcotest.(check bool) "back to min scale" true (d <= 100)

let test_backoff_fibonacci () =
  let b =
    Cohort.Backoff.make ~policy:Cohort.Backoff.Fibonacci ~min:100 ~max:100_000
      ~salt:3 ()
  in
  let ds = List.init 10 (fun _ -> Cohort.Backoff.next b) in
  let dlast = List.nth ds 9 in
  Alcotest.(check bool) "fibonacci grows slower than exp" true
    (dlast < 100 * 1024 && dlast > 100)

let test_backoff_validation () =
  let raised =
    try
      ignore (Cohort.Backoff.make ~min:0 ~max:10 ~salt:0 ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "min>=1 enforced" true raised

let suite =
  [
    ( "mutual_exclusion",
      List.map
        (fun (n, l) -> Alcotest.test_case n `Quick (me_test n l))
        all_locks );
    ( "reacquire",
      List.map
        (fun (n, l) -> Alcotest.test_case n `Quick (reacquire_test n l))
        all_locks );
    ( "alternation",
      List.map
        (fun (n, l) -> Alcotest.test_case n `Quick (alternation_test n l))
        all_locks );
    ( "cohort_behaviour",
      [
        Alcotest.test_case "determinism" `Quick test_lock_determinism;
        Alcotest.test_case "batches locally" `Quick test_cohort_batches;
        Alcotest.test_case "handoff bound" `Quick
          test_handoff_bound_forces_migration;
        Alcotest.test_case "ticket fairness" `Quick test_fair_lock_balances;
      ] );
    ( "successor_behaviour",
      [
        Alcotest.test_case "CNA batches locally" `Quick test_cna_batches;
        Alcotest.test_case "CNA flush bound" `Quick
          test_cna_flush_bound_forces_migration;
        Alcotest.test_case "PTL fairness" `Quick test_ptl_balances;
        Alcotest.test_case "PTL slot wrap" `Quick
          test_ptl_more_threads_than_slots;
      ] );
    ( "abortable_me",
      List.map
        (fun (n, l) -> Alcotest.test_case n `Quick (abortable_me_test n l))
        all_abortable );
    ( "abortable_timeout",
      List.map
        (fun (n, l) ->
          Alcotest.test_case n `Quick (abortable_timeout_test n l))
        all_abortable );
    ( "abortable_zero_patience",
      List.map
        (fun (n, l) ->
          Alcotest.test_case n `Quick (abortable_zero_patience_test n l))
        all_abortable );
    ( "backoff",
      [
        Alcotest.test_case "growth" `Quick test_backoff_growth;
        Alcotest.test_case "reset" `Quick test_backoff_reset;
        Alcotest.test_case "fibonacci" `Quick test_backoff_fibonacci;
        Alcotest.test_case "validation" `Quick test_backoff_validation;
      ] );
  ]

(* --- randomized-schedule properties -------------------------------------- *)

(* Mutual exclusion and full progress must hold for every seed, thread
   count and CS/NCS timing mix qcheck throws at the lock. *)
let lock_schedule_prop name (module L : LI.LOCK) =
  QCheck.Test.make
    ~name:(name ^ " holds under random schedules")
    ~count:25
    QCheck.(
      quad (int_range 1 1000) (int_range 2 8) (int_range 1 400)
        (int_range 1 800))
    (fun (seed, n_threads, cs_ns, ncs_ns) ->
      (* Clamp defensively: qcheck's shrinker explores values outside the
         generator's range. *)
      let n_threads = max 2 (min 8 n_threads) in
      let cs_ns = max 1 cs_ns and ncs_ns = max 1 ncs_ns in
      let l = L.create cfg in
      let in_cs = ref 0 in
      let violations = ref 0 in
      let total = ref 0 in
      let iters = 15 in
      ignore
        (E.run ~topology:topo ~n_threads (fun ~tid ~cluster ->
             let rng = Numa_base.Prng.create (seed + tid) in
             let th = L.register l ~tid ~cluster in
             for _ = 1 to iters do
               L.acquire th;
               incr in_cs;
               if !in_cs <> 1 then incr violations;
               M.pause (1 + Numa_base.Prng.int rng cs_ns);
               if !in_cs <> 1 then incr violations;
               incr total;
               decr in_cs;
               L.release th;
               M.pause (1 + Numa_base.Prng.int rng ncs_ns)
             done));
      !violations = 0 && !total = n_threads * iters)

let abortable_schedule_prop name (module L : LI.ABORTABLE_LOCK) =
  QCheck.Test.make
    ~name:(name ^ " abortable safe under random schedules")
    ~count:25
    QCheck.(
      quad (int_range 1 1000) (int_range 2 8) (int_range 600 5_000)
        (int_range 1 400))
    (fun (seed, n_threads, patience, cs_ns) ->
      let n_threads = max 2 (min 8 n_threads) in
      (* Patience must exceed an uncontended acquisition (~500 ns for
         A-C-BO-CLH's enqueue + global-BO path), else zero successes is
         the CORRECT outcome; sub-cost patience is covered by the
         zero-patience unit tests. Clamps also guard out-of-range
         shrinker probes. *)
      let patience = max 600 patience in
      let cs_ns = max 1 cs_ns in
      let l = L.create cfg in
      let in_cs = ref 0 in
      let violations = ref 0 in
      let successes = ref 0 in
      let iters = 15 in
      ignore
        (E.run ~topology:topo ~n_threads (fun ~tid ~cluster ->
             let rng = Numa_base.Prng.create (seed + tid) in
             let th = L.register l ~tid ~cluster in
             for _ = 1 to iters do
               if L.try_acquire th ~patience then begin
                 incr in_cs;
                 if !in_cs <> 1 then incr violations;
                 M.pause (1 + Numa_base.Prng.int rng cs_ns);
                 if !in_cs <> 1 then incr violations;
                 incr successes;
                 decr in_cs;
                 L.release th
               end;
               M.pause (1 + Numa_base.Prng.int rng 300)
             done;
             (* The lock must still be healthy: a generous acquire works. *)
             if L.try_acquire th ~patience:1_000_000_000 then begin
               incr in_cs;
               if !in_cs <> 1 then incr violations;
               M.pause 10;
               decr in_cs;
               L.release th
             end
             else incr violations));
      !violations = 0 && !successes >= 1)

let schedule_props =
  List.map
    (fun (n, l) -> QCheck_alcotest.to_alcotest (lock_schedule_prop n l))
    all_locks
  @ List.map
      (fun (n, l) -> QCheck_alcotest.to_alcotest (abortable_schedule_prop n l))
      all_abortable

let () =
  Alcotest.run "locks" (suite @ [ ("random_schedules", schedule_props) ])
