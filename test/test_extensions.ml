(* Tests for the extension features: handoff policies, the cohort
   batching they produce (read from the lock's trace), the blocking
   cohort lock (C-BLK-BLK) and the NUMA-aware reader-writer lock
   (C-RW-WP). *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module LI = Cohort.Lock_intf
module Mt = Numa_trace.Metrics

let topo = Topology.small
let cfg = { LI.default with LI.clusters = topo.Topology.clusters }

module Table = Cohort.Cohort_locks.Make (M)

let c_bo_mcs = Table.get ~global:"BO" ~local:"MCS"
let c_tkt_mcs = Table.get ~global:"TKT" ~local:"MCS"

module Blk = Cohort.Park_lock.Make (M)
module Rw = (val Table.c_rw_wp)

(* --- handoff policies ------------------------------------------------- *)

(* Run [n_threads] x [iters] contended acquisitions of [L] and roll its
   lock-event trace up into cohort metrics (handoffs, batches). Tracing
   is schedule-neutral, so the run is the untraced one. *)
let cohort_metrics ?(iters = 50) (module L : LI.LOCK) cfg =
  let ring = Numa_trace.Ring.create ~capacity:16_384 in
  let l = L.create { cfg with LI.trace = Numa_trace.Ring.sink ring } in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to iters do
           L.acquire th;
           M.pause 80;
           L.release th;
           M.pause 120
         done));
  Alcotest.(check int) "trace ring kept every event" 0
    (Numa_trace.Ring.dropped ring);
  Numa_trace.Metrics.of_events (Numa_trace.Ring.events ring)

let run_policy (policy : LI.handoff_policy) =
  cohort_metrics c_tkt_mcs { cfg with LI.handoff_policy = policy }

let test_policy_counted_bounds_batches () =
  let m =
    cohort_metrics c_tkt_mcs { cfg with LI.max_local_handoffs = 4 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch_max %d <= bound+1" m.Mt.batch_max)
    true (m.Mt.batch_max <= 5)

let test_policy_unbounded_batches_more () =
  let bounded = run_policy LI.Counted in
  let unbounded = run_policy LI.Unbounded in
  Alcotest.(check bool)
    (Printf.sprintf "unbounded batches (%.1f) >= bounded (%.1f)"
       unbounded.Mt.batch_mean bounded.Mt.batch_mean)
    true
    (unbounded.Mt.batch_mean >= bounded.Mt.batch_mean)

let test_policy_timed_forces_release () =
  (* A tiny time budget must cause frequent global releases even though
     the count bound is huge. *)
  let m =
    run_policy (LI.Timed 500)
    (* 500 ns budget; each CS is ~100+ ns *)
  in
  Alcotest.(check bool)
    (Printf.sprintf "time budget bounds batches (max %d)" m.Mt.batch_max)
    true (m.Mt.batch_max <= 8);
  Alcotest.(check bool) "many global releases" true (m.Mt.handoffs_global > 10)

let test_policy_counted_or_timed () =
  let m = run_policy (LI.Counted_or_timed 500) in
  Alcotest.(check bool) "combined policy bounds batches" true
    (m.Mt.batch_max <= 8)

let test_stats_consistency () =
  let acquires = 8 * 40 in
  let m = cohort_metrics ~iters:40 c_bo_mcs cfg in
  Alcotest.(check int) "every acquisition traced" acquires m.Mt.acquires;
  Alcotest.(check int) "every release counted" acquires
    (m.Mt.handoffs_within_cohort + m.Mt.handoffs_global);
  Alcotest.(check int) "batches partition the acquisitions" acquires
    (Float.to_int (Float.round (m.Mt.batch_mean *. float_of_int m.Mt.batches)));
  Alcotest.(check int) "batch_count = global releases" m.Mt.handoffs_global
    m.Mt.batches;
  Alcotest.(check bool) "batch_max sane" true
    (m.Mt.batch_max >= 1 && m.Mt.batch_max <= cfg.LI.max_local_handoffs + 1)

(* The abortable cohort locks read the same policy: 8 threads x 50
   timed attempts of the registry's [name] under [policy], counting the
   [Starvation_limit_hit] events its trace records. *)
let abortable_starvation_hits name policy =
  let e =
    List.find
      (fun e -> e.Harness.Lock_registry.a_name = name)
      Harness.Lock_registry.abortable_locks
  in
  let (module A : LI.ABORTABLE_LOCK) = e.Harness.Lock_registry.a_lock in
  let ring = Numa_trace.Ring.create ~capacity:16_384 in
  let l =
    A.create
      {
        cfg with
        LI.max_local_handoffs = 4;
        handoff_policy = policy;
        trace = Numa_trace.Ring.sink ring;
      }
  in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = A.register l ~tid ~cluster in
         for _ = 1 to 50 do
           if A.try_acquire th ~patience:2_000 then begin
             M.pause 80;
             A.release th
           end;
           M.pause 120
         done));
  Alcotest.(check int) "trace ring kept every event" 0
    (Numa_trace.Ring.dropped ring);
  List.length
    (List.filter
       (fun (ev : Numa_trace.Event.t) ->
         ev.Numa_trace.Event.kind = Numa_trace.Event.Starvation_limit_hit)
       (Numa_trace.Ring.events ring))

(* Under [Counted] the count is pinned; [Unbounded] never forces a
   global release, and a 500 ns [Timed] budget forces some. *)
let test_abortable_policy name ~counted () =
  Alcotest.(check int) "Counted (golden)" counted
    (abortable_starvation_hits name LI.Counted);
  Alcotest.(check int) "Unbounded" 0
    (abortable_starvation_hits name LI.Unbounded);
  Alcotest.(check bool) "Timed 500 ns forces releases" true
    (abortable_starvation_hits name (LI.Timed 500) > 0)

(* --- blocking cohort lock ---------------------------------------------- *)

let exercise (module L : LI.LOCK) ~n_threads ~iters =
  let l = L.create cfg in
  let in_cs = ref 0 in
  let violations = ref 0 in
  let done_ = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         ignore tid;
         for _ = 1 to iters do
           L.acquire th;
           incr in_cs;
           if !in_cs <> 1 then incr violations;
           M.pause 80;
           if !in_cs <> 1 then incr violations;
           incr done_;
           decr in_cs;
           L.release th;
           M.pause 120
         done));
  (!violations, !done_)

let test_blk_mutual_exclusion () =
  let v, d = exercise (module Blk.Plain) ~n_threads:8 ~iters:40 in
  Alcotest.(check int) "BLK: no violations" 0 v;
  Alcotest.(check int) "BLK: all done" 320 d

let test_c_blk_blk_mutual_exclusion () =
  let v, d = exercise Table.c_blk_blk ~n_threads:8 ~iters:40 in
  Alcotest.(check int) "C-BLK-BLK: no violations" 0 v;
  Alcotest.(check int) "C-BLK-BLK: all done" 320 d

let test_c_blk_blk_batches () =
  let m = cohort_metrics Table.c_blk_blk cfg in
  Alcotest.(check bool)
    (Printf.sprintf "blocking cohort batches locally (avg %.1f)"
       m.Mt.batch_mean)
    true (m.Mt.batch_mean > 1.5)

(* --- reader-writer lock ------------------------------------------------ *)

let test_rw_readers_concurrent () =
  (* All readers must be able to overlap: with 4 readers each holding the
     read lock across a pause, peak concurrency must exceed 1. *)
  let l = Rw.create cfg in
  let active = ref 0 in
  let peak = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:4 (fun ~tid ~cluster ->
         let th = Rw.register l ~tid ~cluster in
         ignore tid;
         for _ = 1 to 20 do
           Rw.read_lock th;
           incr active;
           if !active > !peak then peak := !active;
           M.pause 500;
           decr active;
           Rw.read_unlock th;
           M.pause 100
         done));
  Alcotest.(check bool)
    (Printf.sprintf "readers overlapped (peak %d)" !peak)
    true (!peak >= 2)

let test_rw_writer_excludes_all () =
  let l = Rw.create cfg in
  let readers_in = ref 0 in
  let writers_in = ref 0 in
  let violations = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = Rw.register l ~tid ~cluster in
         if tid < 2 then
           for _ = 1 to 30 do
             Rw.write_lock th;
             incr writers_in;
             if !writers_in <> 1 || !readers_in <> 0 then incr violations;
             M.pause 200;
             if !writers_in <> 1 || !readers_in <> 0 then incr violations;
             decr writers_in;
             Rw.write_unlock th;
             M.pause 300
           done
         else
           for _ = 1 to 30 do
             Rw.read_lock th;
             incr readers_in;
             if !writers_in <> 0 then incr violations;
             M.pause 150;
             if !writers_in <> 0 then incr violations;
             decr readers_in;
             Rw.read_unlock th;
             M.pause 250
           done));
  Alcotest.(check int) "no rw violations" 0 !violations

let test_rw_writer_not_starved () =
  (* Under a continuous read storm, a writer must still get in (writer
     preference): measure its acquisition latency. *)
  let l = Rw.create cfg in
  let writer_done = ref false in
  let stop = M.cell' false in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
         let th = Rw.register l ~tid ~cluster in
         if tid = 0 then begin
           M.pause 2_000;
           Rw.write_lock th;
           writer_done := true;
           Rw.write_unlock th;
           M.write stop true
         end
         else begin
           let rec storm () =
             if not (M.read stop) && M.now () < 10_000_000 then begin
               Rw.read_lock th;
               M.pause 120;
               Rw.read_unlock th;
               storm ()
             end
           in
           storm ()
         end));
  Alcotest.(check bool) "writer acquired under read storm" true !writer_done

let test_rw_write_then_read () =
  let l = Rw.create cfg in
  let value = ref 0 in
  let seen = ref (-1) in
  ignore
    (E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster ->
         let th = Rw.register l ~tid ~cluster in
         if tid = 0 then begin
           Rw.write_lock th;
           M.pause 100;
           value := 42;
           Rw.write_unlock th
         end
         else begin
           M.pause 5_000;
           Rw.read_lock th;
           seen := !value;
           Rw.read_unlock th
         end));
  Alcotest.(check int) "reader sees writer's value" 42 !seen

let test_rw_register_validation () =
  let l = Rw.create cfg in
  let raised =
    try
      ignore (Rw.register l ~tid:0 ~cluster:99);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad cluster rejected" true raised

(* --- native smoke for the extensions ------------------------------------ *)

module Nm = Numa_native.Nat_mem
module NTable = Cohort.Cohort_locks.Make (Nm)
module NRw = (val NTable.c_rw_wp)
module NBlk = (val NTable.c_blk_blk)

let test_native_rw () =
  let cfg = { LI.default with LI.clusters = 2; max_threads = 4 } in
  let l = NRw.create cfg in
  let data = ref 0 in
  let sum = Atomic.make 0 in
  let ds =
    List.init 3 (fun tid ->
        Domain.spawn (fun () ->
            let th = NRw.register l ~tid ~cluster:(tid mod 2) in
            if tid = 0 then
              for _ = 1 to 50 do
                NRw.write_lock th;
                data := !data + 1;
                NRw.write_unlock th
              done
            else
              for _ = 1 to 50 do
                NRw.read_lock th;
                ignore (Atomic.fetch_and_add sum !data);
                NRw.read_unlock th
              done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "all writes landed" 50 !data

let test_native_blk () =
  let cfg = { LI.default with LI.clusters = 2; max_threads = 4 } in
  let l = NBlk.create cfg in
  let counter = ref 0 in
  let ds =
    List.init 3 (fun tid ->
        Domain.spawn (fun () ->
            let th = NBlk.register l ~tid ~cluster:(tid mod 2) in
            for _ = 1 to 30 do
              NBlk.acquire th;
              let v = !counter in
              Domain.cpu_relax ();
              counter := v + 1;
              NBlk.release th
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" 90 !counter

let suite =
  [
    ( "handoff_policy",
      [
        Alcotest.test_case "counted bounds batches" `Quick
          test_policy_counted_bounds_batches;
        Alcotest.test_case "unbounded batches more" `Quick
          test_policy_unbounded_batches_more;
        Alcotest.test_case "timed forces release" `Quick
          test_policy_timed_forces_release;
        Alcotest.test_case "counted_or_timed" `Quick
          test_policy_counted_or_timed;
        Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
        Alcotest.test_case "A-C-BO-BO obeys the policy" `Quick
          (test_abortable_policy "A-C-BO-BO" ~counted:55);
        Alcotest.test_case "A-C-BO-CLH obeys the policy" `Quick
          (test_abortable_policy "A-C-BO-CLH" ~counted:57);
      ] );
    ( "blocking_cohort",
      [
        Alcotest.test_case "BLK mutual exclusion" `Quick
          test_blk_mutual_exclusion;
        Alcotest.test_case "C-BLK-BLK mutual exclusion" `Quick
          test_c_blk_blk_mutual_exclusion;
        Alcotest.test_case "C-BLK-BLK batches" `Quick test_c_blk_blk_batches;
      ] );
    ( "rw_cohort",
      [
        Alcotest.test_case "readers concurrent" `Quick
          test_rw_readers_concurrent;
        Alcotest.test_case "writer excludes" `Quick test_rw_writer_excludes_all;
        Alcotest.test_case "writer not starved" `Quick
          test_rw_writer_not_starved;
        Alcotest.test_case "write visible to read" `Quick
          test_rw_write_then_read;
        Alcotest.test_case "register validation" `Quick
          test_rw_register_validation;
      ] );
    ( "native",
      [
        Alcotest.test_case "rw on domains" `Slow test_native_rw;
        Alcotest.test_case "blk on domains" `Slow test_native_blk;
      ] );
  ]

let () = Alcotest.run "extensions" suite
