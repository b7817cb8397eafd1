(* Schedule-exploration suite (Numa_check): exhaustive bounded
   exploration is clean on every genuine registry lock at a small
   configuration, each of the four seeded mutants is caught, and the
   shrunk counterexample decision traces are golden-pinned and replay
   bit-identically. The pins document the minimal schedules that expose
   each bug; like test_golden.ml they move only with an intentional
   engine/latency change, never casually. *)

module E = Numa_check.Explore
module D = Numa_check.Decision
module V = Numa_check.Violation
module Mut = Numa_check.Mutants.Make (Numasim.Sim_mem)

let mutant name = Option.get (Mut.find name)
module R = Harness.Lock_registry
module LI = Cohort.Lock_intf

(* --- Genuine locks: clean under exploration ----------------------------- *)

let registry_clean (e : R.entry) () =
  let sc = E.scenario e.R.lock in
  let r = E.exhaustive ~preemptions:1 ~budget:5_000 sc in
  Alcotest.(check bool)
    (e.R.name ^ ": search exhausted within budget")
    true r.E.exhausted;
  match r.E.failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "%s: false positive on trace %s: %s" e.R.name
        (D.to_string trace) (V.to_string v)

(* The flagship cohort lock gets the full 2-preemption bound. The
   schedule count is an exact pin: it is a pure function of the lock's
   memory accesses and the simulator's latency model, so a drift here
   means schedules changed — the same contract as test_golden.ml. *)
let cbomcs_deep () =
  let sc =
    E.scenario (Option.get (R.find "C-BO-MCS")).R.lock
  in
  let r = E.exhaustive ~preemptions:2 ~budget:10_000 sc in
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  (match r.E.failure with
  | None -> ()
  | Some (_, v) -> Alcotest.failf "C-BO-MCS: %s" (V.to_string v));
  Alcotest.(check int) "schedule count (golden)" 4314 r.E.schedules

(* The two successor locks get the same treatment: exhaustively clean at
   the full 2-preemption bound (under their scoped oracles — CNA's
   intra-cluster FIFO + handoff limit, PTL's global FIFO), with the
   schedule counts pinned. *)
let successor_deep name ~schedules () =
  let sc = E.scenario (Option.get (R.find name)).R.lock in
  let r = E.exhaustive ~preemptions:2 ~budget:10_000 sc in
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  (match r.E.failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "%s: trace %s: %s" name (D.to_string trace)
        (V.to_string v));
  Alcotest.(check int) "schedule count (golden)" schedules r.E.schedules

(* --- Abortable locks: abort-and-retry ------------------------------------ *)

(* An abortable lock as a plain one: [acquire] repeats [try_acquire]
   until it succeeds, with a patience short enough that the scenario's
   waits time out. Exploring it runs every abort path under the oracle
   and the lost-update check, in the cohort locks also the section 3.6
   races: A-C-BO-BO's rescue of a stranded release-local state and its
   reclaim of an untaken handoff, A-C-BO-CLH's abort against a local
   handoff. *)
let retrying ~patience (module A : LI.ABORTABLE_LOCK) : (module LI.LOCK) =
  (module struct
    include A

    let acquire th = while not (A.try_acquire th ~patience) do () done
  end)

(* Of the patiences 50, 100, 200 and 300 ns, 300 is the only one at
   which every lock finishes the scenario on every explored schedule:
   below it two threads can time out of each other's way forever. At
   300 ns the waits still time out often enough that A-C-BO-BO rescues
   and reclaims and A-C-BO-CLH loses its handoff CAS to an abort. The
   schedule counts are pinned like the other exploration counts. *)
let abortable_clean (e : R.abortable_entry) ~schedules () =
  let sc = E.scenario (retrying ~patience:300 e.R.a_lock) in
  let r = E.exhaustive ~preemptions:1 ~budget:5_000 sc in
  (match r.E.failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "%s: trace %s: %s" e.R.a_name (D.to_string trace)
        (V.to_string v));
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  Alcotest.(check int) "schedule count (golden)" schedules r.E.schedules

(* A-C-BO-CLH's cohort handoffs under the handoff oracle (its "A-" name
   keeps it out of [Oracle.for_lock]'s cohort checks): the handoff must
   be counted before the CAS that grants it, and its trace event emitted
   in the same engine event as that CAS, while the taker still waits. *)
let a_c_bo_clh_handoff () =
  let e =
    List.find (fun (e : R.abortable_entry) -> e.R.a_name = "A-C-BO-CLH")
      R.abortable_locks
  in
  let sc =
    E.scenario
      ~checks:{ Numa_check.Oracle.me_only with handoff = true }
      (retrying ~patience:300 e.R.a_lock)
  in
  let r = E.exhaustive ~preemptions:1 ~budget:5_000 sc in
  (match r.E.failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "A-C-BO-CLH: trace %s: %s" (D.to_string trace)
        (V.to_string v));
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  Alcotest.(check int) "schedule count (golden)" 470 r.E.schedules

(* --- Pruning: sound (same verdicts) and effective (fewer schedules) ----- *)

(* The commuting-deviation reduction must preserve the deep pin's clean
   verdict while visiting strictly fewer schedules. The pruned count is
   pinned like the full one: both are pure functions of the lock's
   accesses and the latency model. *)
let cbomcs_deep_pruned () =
  let sc = E.scenario (Option.get (R.find "C-BO-MCS")).R.lock in
  let r = E.exhaustive ~preemptions:2 ~budget:10_000 ~prune:true sc in
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  (match r.E.failure with
  | None -> ()
  | Some (_, v) -> Alcotest.failf "C-BO-MCS pruned: %s" (V.to_string v));
  Alcotest.(check int) "pruned schedule count (golden)" 1398 r.E.schedules;
  Alcotest.(check int) "deviations pruned (golden)" 1334 r.E.pruned

let successor_deep_pruned name ~schedules ~pruned () =
  let sc = E.scenario (Option.get (R.find name)).R.lock in
  let r = E.exhaustive ~preemptions:2 ~budget:10_000 ~prune:true sc in
  Alcotest.(check bool) "exhausted" true r.E.exhausted;
  (match r.E.failure with
  | None -> ()
  | Some (_, v) -> Alcotest.failf "%s pruned: %s" name (V.to_string v));
  Alcotest.(check int) "pruned schedule count (golden)" schedules r.E.schedules;
  Alcotest.(check int) "deviations pruned (golden)" pruned r.E.pruned

let registry_clean_pruned (e : R.entry) () =
  let sc = E.scenario e.R.lock in
  let full = E.exhaustive ~preemptions:1 ~budget:5_000 sc in
  let pruned = E.exhaustive ~preemptions:1 ~budget:5_000 ~prune:true sc in
  Alcotest.(check bool)
    (e.R.name ^ ": pruned search exhausted")
    true pruned.E.exhausted;
  (match pruned.E.failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "%s: pruned false positive on trace %s: %s" e.R.name
        (D.to_string trace) (V.to_string v));
  Alcotest.(check bool)
    (e.R.name ^ ": pruning visits strictly fewer schedules")
    true
    (pruned.E.schedules < full.E.schedules && pruned.E.pruned > 0)

(* --- Mutants: caught, shrunk, pinned, replayable ------------------------ *)

let catch_mutant ?(prune = false) lock ~invariant ~pin () =
  let sc = E.scenario lock in
  let r = E.exhaustive ~preemptions:2 ~budget:5_000 ~prune sc in
  match r.E.failure with
  | None -> Alcotest.fail "mutant escaped exhaustive exploration"
  | Some (trace, v) ->
      Alcotest.(check string) "invariant caught" invariant v.V.invariant;
      let shrunk =
        match E.shrunk_counterexample sc (trace, v) with
        | Some ce -> ce.E.ce_trace
        | None -> Alcotest.fail "shrunk trace no longer fails"
      in
      Alcotest.(check string) "shrunk trace (golden)" pin (D.to_string shrunk);
      (* The shrunk trace must replay the same failure, bit-identically,
         as many times as it is run. *)
      let r1 = E.run_once ~record:true sc shrunk in
      let r2 = E.run_once ~record:true sc shrunk in
      (match (r1.E.outcome, r2.E.outcome) with
      | E.Fail v1, E.Fail v2 ->
          Alcotest.(check string) "replayed invariant" invariant v1.V.invariant;
          Alcotest.(check string)
            "two replays: identical violation" (V.to_string v1)
            (V.to_string v2);
          Alcotest.(check string)
            "two replays: identical interleaving"
            (Format.asprintf "%a" D.pp_interleaving r1.E.steps)
            (Format.asprintf "%a" D.pp_interleaving r2.E.steps)
      | _ -> Alcotest.fail "shrunk trace no longer fails on replay")

let mutant_cases =
  [
    (* The unbounded-local-batch bug trips the handoff-limit oracle on
       the very first (default) schedule. *)
    Alcotest.test_case "C-BO-MCS!skip-limit -> cohort-handoff-limit" `Quick
      (catch_mutant Mut.skip_limit ~invariant:"cohort-handoff-limit"
         ~pin:"default");
    (* The split read-then-write ticket grab already loses a ticket on
       the default schedule; the oracle sees the FIFO break first. *)
    Alcotest.test_case "TKT!lost-ticket -> fifo" `Quick
      (catch_mutant (mutant "TKT!lost-ticket") ~invariant:"fifo"
         ~pin:"default");
    (* The misordered successor publish needs a genuinely adversarial
       schedule: two deviations that land a grant inside the
       publish/reset window, wedging the queue. *)
    Alcotest.test_case "MCS!late-reset -> deadlock" `Quick
      (catch_mutant (mutant "MCS!late-reset") ~invariant:"deadlock"
         ~pin:"0:1,5:1");
    (* The dropped releaser-side rescue is a lost wakeup on the default
       schedule already: a thread parks while the holder is still
       active (so the parker's own rescue finds the gate occupied and
       stands down), and when that last active retires nobody is left
       to promote the passive list. *)
    Alcotest.test_case "GCR-MCS!dropped-unpark -> deadlock" `Quick
      (catch_mutant (mutant "GCR-MCS!dropped-unpark") ~invariant:"deadlock"
         ~pin:"default");
  ]

(* Cross-check: the reduction keeps every mutant catchable with the SAME
   shrunk counterexample as the full search — empirical completeness
   evidence for the pruning rule (notably the Rmw-promotion exemption,
   which MCS!late-reset's pinned trace depends on). *)
let mutant_cases_pruned =
  [
    Alcotest.test_case "C-BO-MCS!skip-limit (pruned)" `Quick
      (catch_mutant ~prune:true Mut.skip_limit
         ~invariant:"cohort-handoff-limit" ~pin:"default");
    Alcotest.test_case "TKT!lost-ticket (pruned)" `Quick
      (catch_mutant ~prune:true (mutant "TKT!lost-ticket")
         ~invariant:"fifo" ~pin:"default");
    Alcotest.test_case "MCS!late-reset (pruned)" `Quick
      (catch_mutant ~prune:true (mutant "MCS!late-reset")
         ~invariant:"deadlock" ~pin:"0:1,5:1");
    Alcotest.test_case "GCR-MCS!dropped-unpark (pruned)" `Quick
      (catch_mutant ~prune:true (mutant "GCR-MCS!dropped-unpark")
         ~invariant:"deadlock" ~pin:"default");
  ]

(* --- Fuzzing ------------------------------------------------------------- *)

(* Weighted-random schedules: clean on a genuine lock, and any failure it
   finds on a mutant comes with a trace that replays it. *)
let fuzz_clean () =
  let sc = E.scenario (Option.get (R.find "C-TKT-MCS")).R.lock in
  let r = E.fuzz ~seed:7 ~runs:100 sc in
  Alcotest.(check int) "all runs executed" 100 r.E.fuzz_runs;
  match r.E.fuzz_failure with
  | None -> ()
  | Some (trace, v) ->
      Alcotest.failf "C-TKT-MCS fuzz: false positive on %s: %s"
        (D.to_string trace) (V.to_string v)

let fuzz_catches_and_replays () =
  let sc = E.scenario (mutant "TKT!lost-ticket") in
  let r = E.fuzz ~seed:7 ~runs:100 sc in
  match r.E.fuzz_failure with
  | None -> Alcotest.fail "fuzz missed the lost-ticket mutant"
  | Some (trace, v) -> (
      match (E.run_once sc trace).E.outcome with
      | E.Fail v' ->
          Alcotest.(check string) "fuzz trace replays the failure"
            (V.to_string v) (V.to_string v')
      | E.Pass -> Alcotest.fail "fuzz trace did not replay its failure")

let () =
  Alcotest.run "explore"
    [
      ( "registry_clean",
        List.map
          (fun (e : R.entry) ->
            Alcotest.test_case e.R.name `Quick (registry_clean e))
          R.all_locks );
      ( "abortable",
        List.map2
          (fun (e : R.abortable_entry) schedules ->
            Alcotest.test_case e.R.a_name `Quick
              (abortable_clean e ~schedules))
          R.abortable_locks [ 268; 80; 463; 470 ]
        @ [
            Alcotest.test_case "A-C-BO-CLH handoff oracle" `Quick
              a_c_bo_clh_handoff;
          ] );
      ( "deep",
        [
          Alcotest.test_case "C-BO-MCS preemptions=2" `Quick cbomcs_deep;
          Alcotest.test_case "CNA preemptions=2" `Quick
            (successor_deep "CNA" ~schedules:3954);
          Alcotest.test_case "PTL preemptions=2" `Quick
            (successor_deep "PTL" ~schedules:1185);
        ] );
      ( "pruning",
        Alcotest.test_case "C-BO-MCS preemptions=2 (pruned)" `Quick
          cbomcs_deep_pruned
        :: Alcotest.test_case "CNA preemptions=2 (pruned)" `Quick
             (successor_deep_pruned "CNA" ~schedules:1621 ~pruned:968)
        :: Alcotest.test_case "PTL preemptions=2 (pruned)" `Quick
             (successor_deep_pruned "PTL" ~schedules:449 ~pruned:355)
        :: List.map
             (fun (e : R.entry) ->
               Alcotest.test_case (e.R.name ^ " (pruned)") `Quick
                 (registry_clean_pruned e))
             R.all_locks );
      ("mutants", mutant_cases);
      ("mutants_pruned", mutant_cases_pruned);
      ( "fuzz",
        [
          Alcotest.test_case "genuine lock clean" `Quick fuzz_clean;
          Alcotest.test_case "mutant caught and replayed" `Quick
            fuzz_catches_and_replays;
        ] );
    ]
