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
      (* Two generators in step: one draws floats, the other int64s. *)
      let t = Prng.create seed and t' = Prng.create seed in
      List.for_all
        (fun _ ->
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

let test_prng_int_rejects_empty_range () =
  let t = Prng.create 5 in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "int t %d" n)
        (Invalid_argument "Prng.int: n <= 0")
        (fun () -> ignore (Prng.int t n)))
    [ 0; -1; min_int ]

(* A unit draw lies in [0, 1): [chance 0.] never holds and
   [chance 1.] always does. *)
let test_prng_chance_extremes () =
  let t = Prng.create 17 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "p=0" false (Prng.chance t 0.);
    Alcotest.(check bool) "p=1" true (Prng.chance t 1.)
  done

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
  let w1 = Prng.next_int64 t in
  let w2 = Prng.next_int64 t in
  let w3 = Prng.next_int64 t in
  Alcotest.(check (list int)) "int" [ 53; 723072; 0 ] [ i1; i2; ii ];
  Alcotest.(check (float 0.)) "float 1.0" 0x1.1d499d5c4c3e6p-2 f1;
  Alcotest.(check (float 0.)) "float 10.0" 0x1.b89069fb47766p+1 f2;
  Alcotest.(check (list bool)) "chance" [ true; false; false; true ] [ c1; c2; c3; c4 ];
  Alcotest.(check (list int64))
    "int64"
    [ 0x9e54d738297f77aeL; 0x3474724a775b19bfL; 0x7e348a0e451650beL ]
    [ w1; w2; w3 ]

(* The sample below has mean 5 and population stddev 2. Shifting it by
   5 moves only the mean, tripling it scales both: the three ratios pin
   the mean and the stddev apart. *)
let test_stats_basic () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check (float 1e-9)) "2 / 5" 40.0 (Stats.stddev_pct a);
  Alcotest.(check (float 1e-9)) "2 / 10" 20.0
    (Stats.stddev_pct (Array.map (fun x -> x +. 5.) a));
  Alcotest.(check (float 1e-9)) "6 / 15" 40.0
    (Stats.stddev_pct (Array.map (fun x -> x *. 3.) a))

let test_stats_empty () =
  Alcotest.(check (float 0.)) "empty" 0. (Stats.stddev_pct [||]);
  Alcotest.(check (float 0.)) "one sample has no spread" 0.
    (Stats.stddev_pct [| 3. |])

let test_stats_stddev_pct () =
  Alcotest.(check (float 1e-9)) "no spread" 0.
    (Stats.stddev_pct [| 10.; 10.; 10. |]);
  Alcotest.(check (float 1e-9)) "zero mean" 0. (Stats.stddev_pct [| -1.; 1. |])

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile a 0.);
  Alcotest.(check (float 1e-9)) "p100" 10.0 (Stats.percentile a 100.);
  Alcotest.(check (float 1e-9)) "p50" 5.5 (Stats.percentile a 50.)

(* One pass (Welford) against the two-pass textbook formula:
   stddev_pct * mean = 100 * stddev, so the check holds whatever the
   sign or size of the mean. *)
let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"Welford mean = naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let a = Array.of_list xs in
      let n = float_of_int (Array.length a) in
      let mean = Array.fold_left ( +. ) 0. a /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. a /. n
      in
      let stddev = if Array.length a < 2 then 0. else sqrt var in
      abs_float ((Stats.stddev_pct a *. mean) -. (100. *. stddev))
      < 1e-6 *. (1. +. (100. *. stddev)))

(* --- Histogram ------------------------------------------------------- *)

module H = Stats.Histogram

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "quantile" 0 (H.quantile h 0.5);
  Alcotest.(check int) "max" 0 (H.max_seen h)

(* Each value's bucket top, capped by the maximum: 10 -> 16, 20 and
   30 -> 32, 40 -> 64, 1000 -> 1000; a q-quantile is the value of rank
   ceil (q * 5). *)
let test_hist_basic () =
  let h = H.create () in
  List.iter (H.add h) [ 10; 20; 30; 40; 1000 ];
  Alcotest.(check (list int)) "quantiles" [ 16; 32; 32; 64; 1000 ]
    (List.map (H.quantile h) [ 0.2; 0.4; 0.6; 0.8; 1.0 ]);
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
  H.add h 100;
  Alcotest.(check int) "counted: the median of {0, 100}" 0 (H.quantile h 0.5)

let test_hist_merge () =
  let a = H.create () and b = H.create () in
  List.iter (H.add a) [ 1; 2; 3 ];
  List.iter (H.add b) [ 100; 200 ];
  let m = H.merge a b and all = H.create () in
  List.iter (H.add all) [ 1; 2; 3; 100; 200 ];
  let qs = [ 0.; 0.2; 0.4; 0.5; 0.6; 0.8; 1.0 ] in
  Alcotest.(check (list int)) "quantiles of the union"
    (List.map (H.quantile all) qs) (List.map (H.quantile m) qs);
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
        Alcotest.test_case "uniformity" `Quick test_prng_rough_uniformity;
        Alcotest.test_case "chance" `Quick test_prng_chance;
        Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        Alcotest.test_case "int rejects n <= 0" `Quick
          test_prng_int_rejects_empty_range;
        Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
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
