(* Conformance suite for the RUNTIME capability signature, run against
   both implementations: Numasim.Sim_runtime (effect fibers) and
   Numa_native.Nat_runtime (real domains). Mirrors
   test_memory_conformance.ml's role for MEMORY: every harness-visible
   behaviour — topology placement, the stop flag's deadline,
   oversubscription, failure reporting (checker violations raised
   natively) — must hold on both substrates. Native pacing uses pauses long enough to reach
   Nat_mem's sleeping tier, so oversubscribed domains still interleave. *)

open Numa_base
module LI = Cohort.Lock_intf

(* A deliberately broken "lock" (acquire is a no-op): the oracle's wrap
   must turn concurrent critical sections into a Violation on either
   substrate. *)
module Broken : LI.LOCK = struct
  type t = unit
  type thread = unit

  let name = "broken"
  let create _ = ()
  let register () ~tid:_ ~cluster:_ = ()
  let acquire () = ()
  let release () = ()
end

module Conf
    (M : Memory_intf.MEMORY)
    (RT : Runtime_intf.RUNTIME) (P : sig
      val tick : int
      (** pause quantum, ns: long enough to deschedule a native domain. *)
    end) =
struct
  let topo4 =
    Topology.make ~name:"conf4" ~clusters:4 ~threads_per_cluster:4
      Latency.t5440

  let test_placement () =
    let n = 8 in
    let declared = Array.make n (-1) in
    ignore
      (RT.run ~topology:topo4 ~n_threads:n (fun ~stop:_ ~tid ~cluster ->
           declared.(tid) <- cluster));
    for tid = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "tid %d placed per topology" tid)
        (Topology.cluster_of_thread topo4 tid)
        declared.(tid)
    done

  (* On the simulator the deadline is deterministic and ends the run:
     [run] returns at [stop_after], and every thread must have made
     progress before it. Natively that would measure the host scheduler
     (a domain may not get a core before the deadline), so the check
     there is scheduling-independent: each thread reads [now] right after
     it sees the flag set, no reading may precede [start + stop_after]
     ([start] is taken before [run], so the runtime's own clock start is
     no earlier), and every thread must exit. *)
  let test_stop_after () =
    let n = 4 in
    let stop_after = 100 * P.tick in
    let iters = Array.make n 0 in
    let seen_at = Array.make n (-1) in
    let start = if RT.deterministic then 0 else M.now () in
    let stats =
      RT.run ~topology:topo4 ~n_threads:n ~stop_after
        (fun ~stop ~tid ~cluster:_ ->
          while not (RT.stopped stop) do
            M.pause P.tick;
            iters.(tid) <- iters.(tid) + 1
          done;
          seen_at.(tid) <- M.now ())
    in
    if RT.deterministic then
      Alcotest.(check bool)
        "the run returned at the deadline" true
        (stats.Runtime_intf.elapsed_ns <= stop_after)
    else
      Alcotest.(check int)
        "all threads finished" n stats.Runtime_intf.threads_finished;
    Array.iteri
      (fun tid it ->
        if RT.deterministic then
          Alcotest.(check bool)
            (Printf.sprintf "tid %d made progress before the deadline" tid)
            true (it > 0)
        else
          Alcotest.(check bool)
            (Printf.sprintf "tid %d saw the flag no earlier than the deadline"
               tid)
            true
            (seen_at.(tid) >= start + stop_after))
      iters;
    Alcotest.(check bool) "sim-only stats present iff deterministic" true
      (RT.deterministic = (stats.Runtime_intf.profile <> None))

  (* More logical threads than the machine has contexts: the runtime
     wraps them (tid mod contexts) instead of refusing, and every fiber
     still runs to completion on the cluster its context dictates. *)
  let test_oversubscribed () =
    let total = Topology.total_threads topo4 in
    let n = total + 8 in
    let declared = Array.make n (-1) in
    let stats =
      RT.run ~topology:topo4 ~n_threads:n (fun ~stop:_ ~tid ~cluster ->
          declared.(tid) <- cluster;
          M.pause P.tick)
    in
    Alcotest.(check int)
      "all logical threads finished" n stats.Runtime_intf.threads_finished;
    for tid = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "tid %d wrapped onto its context's cluster" tid)
        (Topology.cluster_of_thread topo4 tid)
        declared.(tid)
    done

  (* GCR-style spin-then-park handshake at 1.5x oversubscription: odd
     tids park on a per-tid gate cell (a short timed spin, then the
     blocking wait — park_lock's shape), even tids unpark their +1
     partner. Half the wakers signal immediately (the parker is caught
     in its spin phase), half wait until the parker has certainly
     blocked. Wakeups must reach the right LOGICAL tid even though
     wrapped logical threads share hardware contexts, and a blocked
     parker must never prevent the waker sharing its context from
     running (the lost-wakeup shape behind Gcr_lock's passive list). *)
  let test_park_oversubscribed () =
    let total = Topology.total_threads topo4 in
    let n = total + 8 in
    let gates = Array.init n (fun _ -> M.cell' ~name:"conf.gate" 0) in
    let woken_by = Array.make n (-1) in
    let parked = Array.make n false in
    let stats =
      RT.run ~topology:topo4 ~n_threads:n (fun ~stop:_ ~tid ~cluster:_ ->
          if tid land 1 = 1 then (
            match
              M.wait_until_for gates.(tid) (fun v -> v <> 0) ~timeout:P.tick
            with
            | Some v -> woken_by.(tid) <- v - 1
            | None ->
                parked.(tid) <- true;
                let v = M.wait_until gates.(tid) (fun v -> v <> 0) in
                woken_by.(tid) <- v - 1)
          else begin
            if tid mod 4 <> 0 then M.pause (4 * P.tick);
            M.write gates.(tid + 1) (tid + 1)
          end)
    in
    Alcotest.(check int)
      "all logical threads finished" n stats.Runtime_intf.threads_finished;
    for tid = 0 to n - 1 do
      if tid land 1 = 1 then
        Alcotest.(check int)
          (Printf.sprintf "tid %d woken by its partner" tid)
          (tid - 1) woken_by.(tid)
    done;
    Alcotest.(check bool) "the slow wakers found their partners parked" true
      (Array.exists Fun.id parked)

  let test_checker_violation_raised () =
    let module CL = Numa_check.Oracle.Make (M) in
    let (module L) = CL.wrap (module Broken) in
    let l = L.create { LI.default with clusters = 4; max_threads = 8 } in
    let raised =
      try
        ignore
          (RT.run ~topology:topo4 ~n_threads:3 ~stop_after:(2_000 * P.tick)
             (fun ~stop ~tid ~cluster ->
               let th = L.register l ~tid ~cluster in
               while not (RT.stopped stop) do
                 L.acquire th;
                 M.pause P.tick;
                 L.release th
               done));
        false
      with
      | Runtime_intf.Thread_failure
          { exn = Numa_check.Violation.Violation _; _ } ->
          true
    in
    Alcotest.(check bool)
      "broken mutual exclusion surfaced as a Violation" true raised

  (* [init] writes from the host between runs; the next run reads the
     value. On the simulator a re-initialised cell on a line an earlier
     run touched is charged as a fresh line: the epoch leaves it Invalid,
     so the first read is a memory miss, not the L1 hit the same thread
     would have had within one run. *)
  let test_init_between_runs () =
    let read_once c =
      let seen = ref (-1) in
      let stats =
        RT.run ~topology:topo4 ~n_threads:1 (fun ~stop:_ ~tid:_ ~cluster:_ ->
            seen := M.read c)
      in
      (!seen, stats)
    in
    let c = M.cell' ~name:"conf.init" 0 in
    ignore
      (RT.run ~topology:topo4 ~n_threads:1 (fun ~stop:_ ~tid:_ ~cluster:_ ->
           M.write c 5));
    M.init c 7;
    let v, reused = read_once c in
    Alcotest.(check int) "init then read" 7 v;
    let v, fresh = read_once (M.cell' ~name:"conf.init" 7) in
    Alcotest.(check int) "fresh cell read" 7 v;
    if RT.deterministic then begin
      Alcotest.(check int)
        "same cost as a fresh line" fresh.Runtime_intf.elapsed_ns
        reused.Runtime_intf.elapsed_ns;
      Alcotest.(check bool)
        "same coherence counters as a fresh line" true
        (fresh.Runtime_intf.profile = reused.Runtime_intf.profile);
      Alcotest.(check (option int))
        "one memory miss" (Some 1)
        (Option.map
           (fun p -> p.Numa_trace.Profile.totals.memory_misses)
           reused.Runtime_intf.profile)
    end

  let suite speed =
    [
      Alcotest.test_case "topology placement" speed test_placement;
      Alcotest.test_case "stop flag: deadline" speed test_stop_after;
      Alcotest.test_case "oversubscribed run" speed test_oversubscribed;
      Alcotest.test_case "park/unpark oversubscribed" speed
        test_park_oversubscribed;
      Alcotest.test_case "checker violation raised" speed
        test_checker_violation_raised;
      Alcotest.test_case "init between runs" speed test_init_between_runs;
    ]
end

module Sim_conf =
  Conf (Numasim.Sim_mem) (Numasim.Sim_runtime)
    (struct
      let tick = 1_000
    end)

(* Native ticks reach Nat_mem.pause's sleeping tier (>= 5 us), so a
   pausing domain yields the core and peers genuinely overlap. *)
module Nat_conf =
  Conf (Numa_native.Nat_mem) (Numa_native.Nat_runtime)
    (struct
      let tick = 50_000
    end)

let () =
  Alcotest.run "runtime_conformance"
    [
      ("sim", Sim_conf.suite `Quick); ("native", Nat_conf.suite `Slow);
    ]
