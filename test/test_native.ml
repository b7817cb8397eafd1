(* Native (real Domain) tests: the same lock algorithms instantiated over
   Atomic-backed memory, drawn from the shared substrate-generic registry
   (Harness.Native.Registry) rather than ad-hoc re-instantiations. Kept
   small — this container has a single core, so spinning domains rely on
   preemption (and Nat_mem's sleep escalation) for progress. *)

module M = Numa_native.Nat_mem
module LI = Cohort.Lock_intf
module LR = Harness.Lock_registry
module NR = Harness.Native.Registry
module NB = Harness.Native.Bench

let cfg = { LI.default with LI.clusters = 2; max_threads = 8 }

let entry name = Option.get (NR.find name)
let lock name = (entry name).LR.lock
let a_lock name =
  (List.find (fun e -> e.LR.a_name = name) NR.abortable_locks).LR.a_lock

(* n domains each perform [iters] increments of an unprotected counter
   under the lock; torn updates would lose increments. *)
let counter_test ?(cfg = cfg) name (module L : LI.LOCK) ~domains ~iters () =
  let l = L.create cfg in
  let counter = ref 0 in
  let spawn tid =
    Domain.spawn (fun () ->
        let th = L.register l ~tid ~cluster:(tid mod cfg.LI.clusters) in
        for _ = 1 to iters do
          L.acquire th;
          (* Read-modify-write with a window: unsynchronised domains would
             interleave here and lose updates. *)
          let v = !counter in
          if iters < 100 then Domain.cpu_relax ();
          counter := v + 1;
          L.release th
        done)
  in
  let ds = List.init domains spawn in
  List.iter Domain.join ds;
  Alcotest.(check int) (name ^ ": no lost updates") (domains * iters) !counter

let abortable_counter_test name (module L : LI.ABORTABLE_LOCK) ~domains ~iters
    () =
  let l = L.create cfg in
  let counter = Atomic.make 0 in
  let successes = Atomic.make 0 in
  let spawn tid =
    Domain.spawn (fun () ->
        let th = L.register l ~tid ~cluster:(tid mod 2) in
        for _ = 1 to iters do
          if L.try_acquire th ~patience:50_000_000 then begin
            Atomic.incr counter;
            Atomic.incr successes;
            L.release th
          end
        done)
  in
  let ds = List.init domains spawn in
  List.iter Domain.join ds;
  Alcotest.(check bool)
    (name ^ ": most attempts succeed")
    true
    (Atomic.get successes > domains * iters / 2);
  Alcotest.(check int)
    (name ^ ": counter = successes")
    (Atomic.get successes) (Atomic.get counter)

let single_domain_test name (module L : LI.LOCK) () =
  let l = L.create cfg in
  let th = L.register l ~tid:0 ~cluster:0 in
  for _ = 1 to 1000 do
    L.acquire th;
    L.release th
  done;
  Alcotest.(check pass) (name ^ ": uncontended cycles") () ()

let contended_locks =
  [ "BO"; "TKT"; "MCS"; "C-BO-MCS"; "C-TKT-TKT"; "C-MCS-MCS" ]

(* Every entry of the shared registry — the full paper line-up — must
   register and cycle cleanly on real domains. Uses each entry's own
   config tweak, a 4-cluster declaration, and few iterations (some
   baselines sleep tens of microseconds per backoff). *)
let registry_smoke_test (e : LR.entry) () =
  let module L = (val e.LR.lock : LI.LOCK) in
  let cfg =
    e.LR.tweak { LI.default with LI.clusters = 4; max_threads = 8 }
  in
  counter_test ~cfg e.LR.name (module L) ~domains:4 ~iters:10 ()

(* The native benchmark core must report the same result record as the
   simulated LBench, with sim-only fields marked absent. *)
let test_native_bench_core () =
  let topology =
    Numa_base.Topology.make ~name:"nb" ~clusters:2 ~threads_per_cluster:2
      Numa_base.Latency.t5440
  in
  let r =
    NB.run ~name:"MCS" (lock "MCS") ~topology ~cfg ~n_threads:3
      ~duration:30_000_000 ~seed:5
  in
  Alcotest.(check string) "lock name" "MCS" r.Harness.Bench_core.lock_name;
  Alcotest.(check int)
    "per-thread sums to total" r.Harness.Bench_core.iterations
    (Array.fold_left ( + ) 0 r.Harness.Bench_core.per_thread);
  Alcotest.(check bool) "made progress" true
    (r.Harness.Bench_core.iterations > 0);
  Alcotest.(check bool) "throughput positive" true
    (r.Harness.Bench_core.throughput > 0.);
  Alcotest.(check bool) "p50 <= p99" true
    (r.Harness.Bench_core.acquire_p50 <= r.Harness.Bench_core.acquire_p99);
  Alcotest.(check bool) "misses are sim-only (nan natively)" true
    (Float.is_nan r.Harness.Bench_core.misses_per_cs);
  Alcotest.(check int) "no aborts on plain lock" 0 r.Harness.Bench_core.aborts

let test_memory_primitives () =
  let c = M.cell' 10 in
  Alcotest.(check int) "read" 10 (M.read c);
  M.write c 20;
  Alcotest.(check int) "write" 20 (M.read c);
  Alcotest.(check bool) "cas ok" true (M.cas c ~expect:20 ~desire:30);
  Alcotest.(check bool) "cas stale" false (M.cas c ~expect:20 ~desire:40);
  Alcotest.(check int) "swap old" 30 (M.swap c 50);
  Alcotest.(check int) "faa old" 50 (M.fetch_and_add c 5);
  Alcotest.(check int) "faa new" 55 (M.read c)

let test_wait_until_for_native () =
  let c = M.cell' 0 in
  let t0 = M.now () in
  let r = M.wait_until_for c (fun v -> v = 1) ~timeout:2_000_000 in
  let dt = M.now () - t0 in
  Alcotest.(check bool) "timed out" true (r = None);
  Alcotest.(check bool) "waited roughly the timeout" true (dt >= 2_000_000)

let suite =
  [
    ( "nat_mem",
      [
        Alcotest.test_case "primitives" `Quick test_memory_primitives;
        Alcotest.test_case "wait timeout" `Quick test_wait_until_for_native;
      ] );
    ( "uncontended",
      List.map
        (fun n -> Alcotest.test_case n `Quick (single_domain_test n (lock n)))
        contended_locks );
    ( "contended",
      List.map
        (fun n ->
          Alcotest.test_case n `Slow
            (counter_test n (lock n) ~domains:3 ~iters:30))
        contended_locks );
    ( "registry_smoke",
      List.map
        (fun (e : LR.entry) ->
          Alcotest.test_case e.LR.name `Slow (registry_smoke_test e))
        NR.all_locks );
    ( "bench_core",
      [ Alcotest.test_case "native result record" `Slow test_native_bench_core ]
    );
    ( "abortable",
      [
        Alcotest.test_case "A-CLH" `Slow
          (abortable_counter_test "A-CLH" (a_lock "A-CLH") ~domains:3
             ~iters:20);
        Alcotest.test_case "A-C-BO-CLH" `Slow
          (abortable_counter_test "A-C-BO-CLH" (a_lock "A-C-BO-CLH")
             ~domains:3 ~iters:20);
      ] );
  ]

let () = Alcotest.run "native" suite
