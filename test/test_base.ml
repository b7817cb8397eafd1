(* Tests of numa_base: topology, PRNG, stats. *)

open Numa_base

let test_topology_t5440 () =
  Alcotest.(check int) "threads" 256 (Topology.total_threads Topology.t5440);
  Alcotest.(check int) "clusters" 4 Topology.t5440.Topology.clusters

let test_round_robin_placement () =
  let t = Topology.t5440 in
  Alcotest.(check int) "tid 0" 0 (Topology.cluster_of_thread t 0);
  Alcotest.(check int) "tid 1" 1 (Topology.cluster_of_thread t 1);
  Alcotest.(check int) "tid 5" 1 (Topology.cluster_of_thread t 5);
  Alcotest.(check int) "tid 255" 3 (Topology.cluster_of_thread t 255)

let test_topology_validation () =
  Alcotest.check_raises "clusters<1"
    (Invalid_argument "Topology.make: clusters < 1") (fun () ->
      ignore (Topology.make ~clusters:0 ~threads_per_cluster:4 Latency.t5440));
  (* Oversubscription: tids beyond the machine's contexts wrap instead
     of raising (small = 2x4 contexts, so tid 100 lands on context 4). *)
  let t = Topology.small in
  Alcotest.(check int) "tid wraps onto context"
    (Topology.cluster_of_thread t 4)
    (Topology.cluster_of_thread t 100);
  let raised =
    try
      ignore (Topology.cluster_of_thread t (-1));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative tid rejected" true raised

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let sa = List.init 20 (fun _ -> Prng.int a 1000) in
  let sb = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" sa sb

let test_prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let sa = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (sa <> sb)

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let sa = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (sa <> sb)

let test_prng_copy_diverges_original () =
  let a = Prng.create 7 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  let sa = List.init 10 (fun _ -> Prng.int a 1_000) in
  let sb = List.init 10 (fun _ -> Prng.int b 1_000) in
  Alcotest.(check (list int)) "copy continues the same stream" sa sb

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int in [0,n)" ~count:500
    QCheck.(pair small_nat (int_range 1 10_000))
    (fun (seed, n) ->
      let t = Prng.create seed in
      let v = Prng.int t n in
      v >= 0 && v < n)

let prop_prng_float_in_range =
  QCheck.Test.make ~name:"Prng.float in [0,x)" ~count:500 QCheck.small_nat
    (fun seed ->
      let t = Prng.create seed in
      let v = Prng.float t 4.0 in
      v >= 0.0 && v < 4.0)

(* [float] converts its top 53 bits without going through [Int64]'s
   float conversion; the draws must be those of the [int64] formula. *)
let prop_prng_float_matches_int64 =
  QCheck.Test.make ~name:"Prng.float = top 53 bits of next_int64 / 2^53"
    ~count:500 QCheck.int (fun seed ->
      let t = Prng.create seed in
      List.for_all
        (fun _ ->
          let t' = Prng.copy t in
          let v = Prng.float t 1.0 in
          let bits = Int64.shift_right_logical (Prng.next_int64 t') 11 in
          Float.equal v (Int64.to_float bits /. 9007199254740992.0))
        (List.init 8 Fun.id))

let test_prng_rough_uniformity () =
  let t = Prng.create 1234 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        "bucket within 10% of expected" true
        (abs (c - (n / 10)) < n / 10 / 10 * 3))
    buckets

let test_prng_chance () =
  let t = Prng.create 99 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.chance t 0.3 then incr hits
  done;
  Alcotest.(check bool)
    "p=0.3 frequency" true
    (!hits > 2_700 && !hits < 3_300)

(* Known answers: the splitmix64 reference outputs for seed 0, then a
   fixed draw sequence for seed 42 (one draw per [let], so evaluation
   order is explicit). Any change to the generator's state handling
   that alters a single bit of the stream fails here. *)
let test_prng_known_answers () =
  let z = Prng.create 0 in
  List.iter
    (fun want ->
      Alcotest.(check int64) "splitmix64 seed 0" want (Prng.next_int64 z))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  let t = Prng.create 42 in
  let i1 = Prng.int t 100 in
  let i2 = Prng.int t 1_000_000 in
  let f1 = Prng.float t 1.0 in
  let f2 = Prng.float t 10.0 in
  let c1 = Prng.chance t 0.5 in
  let c2 = Prng.chance t 0.5 in
  let c3 = Prng.chance t 0.1 in
  let c4 = Prng.chance t 0.9 in
  let ii = -5 + Prng.int t 11 in
  let b = Prng.bool t in
  let s = Prng.split t in
  let s1 = Prng.next_int64 s in
  let t1 = Prng.next_int64 t in
  Alcotest.(check (list int)) "int" [ 53; 723072; 0 ] [ i1; i2; ii ];
  Alcotest.(check (float 0.)) "float 1.0" 0x1.1d499d5c4c3e6p-2 f1;
  Alcotest.(check (float 0.)) "float 10.0" 0x1.b89069fb47766p+1 f2;
  Alcotest.(check (list bool))
    "chance, bool" [ true; false; false; true; false ] [ c1; c2; c3; c4; b ];
  Alcotest.(check int64) "split stream" 0xd4403a5bfe881589L s1;
  Alcotest.(check int64) "parent stream after split" 0x7e348a0e451650beL t1

let test_stats_basic () =
  let s = Stats.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "mean of empty" 0. (Stats.mean s);
  Alcotest.(check (float 0.)) "stddev of empty" 0. (Stats.stddev s)

let test_stats_stddev_pct () =
  let s = Stats.of_array [| 10.; 10.; 10. |] in
  Alcotest.(check (float 1e-9)) "no spread" 0. (Stats.stddev_pct s);
  let s2 = Stats.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check (float 1e-9)) "pct" 40.0 (Stats.stddev_pct s2)

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile a 0.);
  Alcotest.(check (float 1e-9)) "p100" 10.0 (Stats.percentile a 100.);
  Alcotest.(check (float 1e-9)) "p50" 5.5 (Stats.percentile a 50.)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"Welford mean = naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let a = Array.of_list xs in
      let naive = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
      abs_float (Stats.mean (Stats.of_array a) -. naive) < 1e-6)

(* --- Histogram ------------------------------------------------------- *)

module H = Stats.Histogram

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "quantile" 0 (H.quantile h 0.5);
  Alcotest.(check (float 0.)) "mean" 0. (H.mean h)

let test_hist_basic () =
  let h = H.create () in
  List.iter (H.add h) [ 10; 20; 30; 40; 1000 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check int) "total" 1100 (H.total h);
  Alcotest.(check (float 0.001)) "mean" 220. (H.mean h);
  Alcotest.(check int) "max" 1000 (H.max_seen h)

let test_hist_quantile_bounds () =
  (* quantile returns an upper bound within 2x of the true value *)
  let h = H.create () in
  for v = 1 to 1000 do
    H.add h v
  done;
  let q50 = H.quantile h 0.5 in
  let q99 = H.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 in [500, 1024], got %d" q50)
    true
    (q50 >= 500 && q50 <= 1024);
  Alcotest.(check bool)
    (Printf.sprintf "p99 in [990, 1024], got %d" q99)
    true
    (q99 >= 990 && q99 <= 1024);
  Alcotest.(check int) "p100 = max" 1000 (H.quantile h 1.0)

let test_hist_negative_clamped () =
  let h = H.create () in
  H.add h (-5);
  Alcotest.(check int) "clamped to 0" 0 (H.quantile h 1.0);
  Alcotest.(check int) "counted" 1 (H.count h)

let test_hist_merge () =
  let a = H.create () and b = H.create () in
  List.iter (H.add a) [ 1; 2; 3 ];
  List.iter (H.add b) [ 100; 200 ];
  let m = H.merge a b in
  Alcotest.(check int) "count" 5 (H.count m);
  Alcotest.(check int) "total" 306 (H.total m);
  Alcotest.(check int) "max" 200 (H.max_seen m)

let prop_hist_quantile_upper_bound =
  QCheck.Test.make ~name:"histogram quantile bounds true quantile" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 100_000))
    (fun vs ->
      let h = H.create () in
      List.iter (H.add h) vs;
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let true_p50 = List.nth sorted ((n - 1) / 2) in
      let est = H.quantile h 0.5 in
      (* upper bound within 2x (log buckets) *)
      est >= true_p50 && (true_p50 = 0 || est <= 2 * max 1 true_p50))

let suite =
  [
    ( "topology",
      [
        Alcotest.test_case "t5440" `Quick test_topology_t5440;
        Alcotest.test_case "round robin" `Quick test_round_robin_placement;
        Alcotest.test_case "validation" `Quick test_topology_validation;
      ] );
    ( "prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_prng_different_seeds;
        Alcotest.test_case "split" `Quick test_prng_split_independent;
        Alcotest.test_case "uniformity" `Quick test_prng_rough_uniformity;
        Alcotest.test_case "chance" `Quick test_prng_chance;
        Alcotest.test_case "copy" `Quick test_prng_copy_diverges_original;
        Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        QCheck_alcotest.to_alcotest prop_prng_int_in_range;
        QCheck_alcotest.to_alcotest prop_prng_float_in_range;
        QCheck_alcotest.to_alcotest prop_prng_float_matches_int64;
      ] );
    ( "stats",
      [
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "stddev pct" `Quick test_stats_stddev_pct;
        Alcotest.test_case "percentile" `Quick test_percentile;
        QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
      ] );
    ( "histogram",
      [
        Alcotest.test_case "empty" `Quick test_hist_empty;
        Alcotest.test_case "basic" `Quick test_hist_basic;
        Alcotest.test_case "quantile bounds" `Quick test_hist_quantile_bounds;
        Alcotest.test_case "negative clamp" `Quick test_hist_negative_clamped;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        QCheck_alcotest.to_alcotest prop_hist_quantile_upper_bound;
      ] );
  ]

let () = Alcotest.run "numa_base" suite
