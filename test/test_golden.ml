(* Golden regression test.

   The simulation is deterministic: for a fixed seed, topology and
   window, every lock produces an exact iteration and migration count.
   These pins catch silent behavioural drift anywhere in the stack —
   engine scheduling, coherence charging, backoff arithmetic, lock
   protocol changes.

   If a test here fails after an INTENTIONAL change to the model or a
   lock, re-generate the table below (the values are printed by the
   failing assertion) and update EXPERIMENTS.md if headline numbers
   moved. *)

module R = Harness.Lock_registry
module LB = Harness.Lbench

let topo = Numa_base.Topology.t5440

let cfg =
  { Cohort.Lock_intf.default with clusters = 4; max_threads = 256 }

(* (lock, iterations, migrations) at 32 threads, 1 ms, seed 2024. *)
let golden =
  [
    ("MCS", 1565, 1201);
    ("HBO", 1710, 504);
    ("HCLH", 1582, 1212);
    ("FC-MCS", 2367, 880);
    ("C-BO-BO", 2259, 127);
    ("C-TKT-TKT", 4224, 454);
    ("C-BO-MCS", 3428, 259);
    ("C-TKT-MCS", 4198, 453);
    ("C-MCS-MCS", 4133, 445);
    ("CNA", 2108, 129);
    ("PTL", 1539, 1174);
    (* The compositions of the table the paper never names. *)
    ("C-BO-TKT", 3490, 260);
    ("C-BO-CLH", 3376, 246);
    ("C-TKT-BO", 2487, 683);
    ("C-TKT-CLH", 4021, 425);
    ("C-MCS-BO", 2447, 660);
    ("C-MCS-TKT", 4159, 446);
    ("C-MCS-CLH", 3954, 420);
    ("C-CLH-BO", 2444, 676);
    ("C-CLH-TKT", 4193, 449);
    ("C-CLH-MCS", 4157, 450);
    ("C-CLH-CLH", 3983, 424);
  ]

let golden_test (name, iters, migs) () =
  let e = Option.get (R.find name) in
  let r =
    LB.run ~name e.R.lock ~topology:topo ~cfg:(e.R.tweak cfg) ~n_threads:32
      ~duration:1_000_000 ~seed:2024
  in
  if (r.LB.iterations, r.LB.migrations) <> (iters, migs) then
    Alcotest.failf
      "%s golden pin drifted:\n\
      \  expected (iterations, migrations) = (%d, %d)\n\
      \  actual   (iterations, migrations) = (%d, %d)\n\
       If this follows an INTENTIONAL model or lock change, update the pin\n\
       in test/test_golden.ml to (%S, %d, %d) and record moved headline\n\
       numbers in EXPERIMENTS.md. Golden pins are updated intentionally,\n\
       never casually (CLAUDE.md); otherwise this is a real behavioural\n\
       regression — find the drift before touching the table."
      name iters migs r.LB.iterations r.LB.migrations name r.LB.iterations
      r.LB.migrations

(* The relationships the whole reproduction rests on, as pinned order
   checks (robust against small retuning, unlike the exact pins). *)
let test_golden_ordering () =
  let tput name =
    let e = Option.get (R.find name) in
    (LB.run ~name e.R.lock ~topology:topo ~cfg:(e.R.tweak cfg) ~n_threads:32
       ~duration:1_000_000 ~seed:2024)
      .LB.iterations
  in
  let mcs = tput "MCS" in
  let fc = tput "FC-MCS" in
  let cbb = tput "C-BO-BO" in
  let best = tput "C-TKT-TKT" in
  (* C-BO-BO "approaches" FC-MCS (paper, section 4.1.1): within 25%
     either side at this contention level. *)
  Alcotest.(check bool) "C-BO-BO approaches FC-MCS" true
    (cbb * 4 > fc * 3 && fc * 4 > cbb * 3);
  Alcotest.(check bool) "MCS-local cohort beats C-BO-BO" true (best > cbb);
  Alcotest.(check bool) "FC-MCS beats MCS" true (fc > mcs)

let suite =
  [
    ( "pinned_values",
      List.map
        (fun (name, i, m) ->
          Alcotest.test_case name `Quick (golden_test (name, i, m)))
        golden );
    ( "pinned_ordering",
      [ Alcotest.test_case "ordering at 32 threads" `Quick test_golden_ordering ] );
  ]

let () = Alcotest.run "golden" suite
