(* Engine fast-path differential (doc/SIMULATOR.md "Engine fast path"):
   the inline path must be observationally IDENTICAL to the effect path —
   value histories, timestamps, event counts, coherence stats, profiler
   attribution and trace streams all byte-equal with the fast path on vs
   forced off. Only which events inline may differ (the inlined/scheduled
   split of the event ledger, the queue tiers; host speed), so every
   comparison here deliberately excludes it. Explore mode inlines only
   forced steps, so schedule exploration (steps, reports, fuzz traces)
   must agree on/off for every microbench lock and every mutant. Plus
   pins: explore mode inlines forced steps only and shows the policy
   every step, a disabled toggle takes the slow path, the event ledger
   accounts for every event, and [Sim_mem] is the engine's own
   primitives. *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module Topology = Numa_base.Topology
module LI = Cohort.Lock_intf
module R = Harness.Lock_registry
module Table = Cohort.Cohort_locks.Make (M)

let with_fastpath b f =
  let saved = E.fastpath_enabled () in
  E.set_fastpath b;
  Fun.protect ~finally:(fun () -> E.set_fastpath saved) f

(* Events a run retired inline, over every class of its ledger. *)
let inlined (r : E.result) =
  List.fold_left
    (fun a c -> a + c.Numa_base.Runtime_intf.ec_inlined)
    0 r.E.classes

(* Everything observable about a run except its ledger's split. *)
type outcome = {
  o_log : (int * int) list;  (** (tid, value) in per-thread program order *)
  o_end_time : int;
  o_events : int;
  o_finished : int;
  o_profile : Numa_trace.Profile.t;
}

let outcome_equal a b = compare a b = 0

(* --- qcheck differential: random multi-thread op sequences ------------- *)

type mop =
  | Load of int
  | Store of int * int
  | Cas of int * int * int
  | Swap of int * int
  | Faa of int * int
  | Pse of int  (** pause, then log [now] — timing must agree too *)

let n_cells = 3
let n_threads = 3

let run_mops ~topology ~profile ~fastpath (threads_ops : mop list array) =
  with_fastpath fastpath @@ fun () ->
  let cells =
    Array.init n_cells (fun i ->
        M.cell' ~name:(Printf.sprintf "fp.c%d" i) 0)
  in
  let logs = Array.make (Array.length threads_ops) [] in
  let r =
    E.run ~topology ~n_threads:(Array.length threads_ops) ~profile
      (fun ~tid ~cluster:_ ->
        let push v = logs.(tid) <- v :: logs.(tid) in
        List.iter
          (function
            | Load c -> push (M.read cells.(c))
            | Store (c, x) -> M.write cells.(c) x
            | Cas (c, e, d) ->
                push (if M.cas cells.(c) ~expect:e ~desire:d then 1 else 0)
            | Swap (c, x) -> push (M.swap cells.(c) x)
            | Faa (c, x) -> push (M.fetch_and_add cells.(c) x)
            | Pse d ->
                M.pause d;
                push (M.now ()))
          threads_ops.(tid);
        (* Final read of every cell closes the history. *)
        Array.iter (fun c -> push (M.read c)) cells)
  in
  {
    o_log =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun tid l -> List.rev_map (fun v -> (tid, v)) l)
              logs));
    o_end_time = r.E.end_time;
    o_events = r.E.events;
    o_finished = r.E.threads_finished;
    o_profile = r.E.profile;
  }

let mop_gen =
  QCheck.Gen.(
    let cell = int_range 0 (n_cells - 1) in
    let v = int_range 0 3 in
    frequency
      [
        (4, map (fun c -> Load c) cell);
        (3, map2 (fun c x -> Store (c, x)) cell v);
        (3, map3 (fun c e d -> Cas (c, e, d)) cell v v);
        (2, map2 (fun c x -> Swap (c, x)) cell v);
        (2, map2 (fun c x -> Faa (c, x)) cell (int_range (-2) 2));
        (2, map (fun d -> Pse d) (int_range 0 60));
      ])

let mop_print = function
  | Load c -> Printf.sprintf "L%d" c
  | Store (c, x) -> Printf.sprintf "S%d<-%d" c x
  | Cas (c, e, d) -> Printf.sprintf "C%d:%d->%d" c e d
  | Swap (c, x) -> Printf.sprintf "X%d<-%d" c x
  | Faa (c, x) -> Printf.sprintf "F%d+%d" c x
  | Pse d -> Printf.sprintf "P%d" d

let arb_threads_ops =
  QCheck.make
    QCheck.Gen.(
      map Array.of_list
        (list_repeat n_threads (list_size (int_range 0 60) mop_gen)))
    ~print:(fun a ->
      String.concat " | "
        (Array.to_list
           (Array.map
              (fun ops -> String.concat ";" (List.map mop_print ops))
              a)))

(* Unprofiled runs take the [prow = None] hit path; round-robin placement
   puts the three threads on rack domains 0, 1 (socket-mates) and 2 (the
   other rack), so fetches and invalidations pick nearest and furthest
   sharers across levels. *)
let prop_paths_agree =
  QCheck.Test.make ~name:"fastpath on/off outcomes agree (random ops)"
    ~count:150 arb_threads_ops (fun ops ->
      List.for_all
        (fun (topology, profile) ->
          outcome_equal
            (run_mops ~topology ~profile ~fastpath:true ops)
            (run_mops ~topology ~profile ~fastpath:false ops))
        [
          (Topology.small, true);
          (Topology.small, false);
          (Topology.rack, true);
          (Topology.rack, false);
        ])

(* --- deterministic differentials: waits, wakes, timeouts ---------------
   Parked waiters woken by a write: the precharged park and the
   effect-path park must leave identical wake order and timing. Each
   scenario allocates its shared state per run and is executed once per
   fastpath setting; the two outcomes must be equal in full. *)

let scenario name mk =
  let go ~fastpath =
    with_fastpath fastpath @@ fun () ->
    let log = ref [] in
    let n, body = mk (fun v -> log := v :: !log) in
    let r = E.run ~topology:Topology.small ~n_threads:n ~profile:true body in
    {
      o_log = List.rev_map (fun v -> (0, v)) !log;
      o_end_time = r.E.end_time;
      o_events = r.E.events;
      o_finished = r.E.threads_finished;
      o_profile = r.E.profile;
    }
  in
  Alcotest.(check bool) name true (outcome_equal (go ~fastpath:true) (go ~fastpath:false))

let test_broadcast_wake_agrees () =
  scenario "broadcast wake" (fun push ->
      let flag = M.cell' ~name:"fp.flag" 0 in
      ( 4,
        fun ~tid ~cluster:_ ->
          if tid = 0 then begin
            M.pause 5_000;
            M.write flag 1
          end
          else begin
            ignore (M.wait_until flag (fun v -> v = 1));
            push (M.now () + tid)
          end ))

let test_immediate_wait_agrees () =
  scenario "immediately satisfied wait" (fun push ->
      let flag = M.cell' ~name:"fp.flag" 7 in
      ( 2,
        fun ~tid:_ ~cluster:_ ->
          push (M.wait_until flag (fun v -> v = 7));
          push (M.now ()) ))

let test_timed_wait_agrees () =
  scenario "timed waits (timeout and success)" (fun push ->
      let flag = M.cell' ~name:"fp.flag" 0 in
      ( 3,
        fun ~tid ~cluster:_ ->
          if tid = 0 then begin
            M.pause 2_000;
            M.write flag 1
          end
          else begin
            (match
               M.wait_until_for flag (fun v -> v = 1)
                 ~timeout:(if tid = 1 then 500 else 1_000_000)
             with
            | Some v -> push (100 + v)
            | None -> push 0);
            push (M.now ())
          end ))

let test_repark_agrees () =
  scenario "re-park on stale value" (fun push ->
      let flag = M.cell' ~name:"fp.flag" 0 in
      ( 3,
        fun ~tid ~cluster:_ ->
          if tid = 0 then begin
            M.pause 2_000;
            M.write flag 1;
            M.write flag 0;
            M.pause 20_000;
            M.write flag 1
          end
          else begin
            push (M.wait_until flag (fun v -> v = 1));
            push (M.now ())
          end ))

(* --- full registry lock runs ------------------------------------------- *)

let base_cfg topology =
  {
    LI.default with
    LI.clusters = topology.Topology.clusters;
    max_threads = Topology.total_threads topology;
  }

let lbench_run ~fastpath ?(tweak = fun c -> c) (e : R.entry) =
  with_fastpath fastpath @@ fun () ->
  Harness.Lbench.run ~name:e.R.name ~rollup:true ~profile:true e.R.lock
    ~topology:Topology.t5440
    ~cfg:(tweak (e.R.tweak (base_cfg Topology.t5440)))
    ~n_threads:8 ~duration:150_000 ~seed:42

(* A result with each ledger row's inlined/scheduled split folded into
   its total and the queue-tier split dropped: which events are
   scheduled, and so queued, is the one thing the fast path may
   change. *)
let unsplit (r : Harness.Lbench.result) =
  {
    r with
    Harness.Lbench.queue_tiers = None;
    event_classes =
      List.map
        (fun (c : Numa_base.Runtime_intf.event_class) ->
          {
            c with
            ec_inlined = 0;
            ec_scheduled = c.ec_inlined + c.ec_scheduled;
          })
        r.Harness.Lbench.event_classes;
  }

let check_agree what a b =
  Alcotest.(check bool)
    (what ^ ": identical result and per-class event totals")
    true
    (compare (unsplit a) (unsplit b) = 0)

let test_registry_locks_agree () =
  List.iter
    (fun (e : R.entry) ->
      check_agree e.R.name (lbench_run ~fastpath:true e)
        (lbench_run ~fastpath:false e))
    R.microbench_locks

(* One oversubscribed collapse point: quantum-expiry pauses, backoff and
   the spinning herd's wakes, on 384 fibers over the T5440's 256
   contexts. *)
let test_collapse_point_agrees () =
  let bo = List.find (fun (e : R.entry) -> e.R.name = "BO") R.collapse_locks in
  let run ~fastpath =
    with_fastpath fastpath @@ fun () ->
    Harness.Experiments.collapse_run bo ~topology:Topology.t5440
      ~n_threads:384 ~duration:200_000 ~seed:42
  in
  let on = run ~fastpath:true in
  let count f cls =
    List.fold_left
      (fun acc (c : Numa_base.Runtime_intf.event_class) ->
        if c.ec_class = cls then acc + f c else acc)
      0 on.Harness.Lbench.event_classes
  in
  Alcotest.(check bool)
    "the fast path engages" true
    (count (fun c -> c.ec_inlined) "resume" > 0);
  Alcotest.(check bool)
    "the herd wakes" true
    (count (fun c -> c.ec_scheduled) "spin-wake" > 0);
  check_agree "BO @ 384" on (run ~fastpath:false)

let test_trace_stream_agrees () =
  (* Full event stream — every lock event, in order, timestamp-exact. *)
  let entry =
    match R.find "C-BO-MCS" with
    | Some e -> e
    | None -> List.hd R.microbench_locks
  in
  let capture ~fastpath =
    let ring = Numa_trace.Ring.create ~capacity:65_536 in
    let e = R.with_trace (Numa_trace.Ring.sink ring) entry in
    ignore (lbench_run ~fastpath e);
    (Numa_trace.Ring.events ring, Numa_trace.Ring.dropped ring)
  in
  Alcotest.(check bool)
    "identical trace streams" true
    (compare (capture ~fastpath:true) (capture ~fastpath:false) = 0)

(* --- pins: when the fast path must NOT engage -------------------------- *)

let contended_run ?policy () =
  let module L = (val Table.get ~global:"BO" ~local:"MCS") in
  let topology = Topology.small in
  let cfg = base_cfg topology in
  let lock = L.create cfg in
  let data = M.cell' ~name:"fp.data" 0 in
  E.run ~topology ~n_threads:4 ?policy (fun ~tid ~cluster ->
      let th = L.register lock ~tid ~cluster in
      for _ = 1 to 20 do
        L.acquire th;
        let v = M.read data in
        M.write data (v + 1);
        L.release th
      done)

let test_explore_forced_only () =
  (* Log every step the policy sees: forced inline steps must show the
     very candidate (time, tid, class, line) the pending set would. *)
  let logged ~fastpath =
    with_fastpath fastpath @@ fun () ->
    let log = ref [] in
    let policy ~step ~n (cands : E.candidate array) =
      let c = cands.(0) in
      log := (step, n, c.E.c_time, c.E.c_tid, c.E.c_class, c.E.c_line) :: !log;
      0
    in
    let r = contended_run ~policy () in
    (r, List.rev !log)
  in
  let heap = with_fastpath true contended_run in
  let on, log_on = logged ~fastpath:true in
  let off, log_off = logged ~fastpath:false in
  let forced =
    List.length (List.filter (fun (_, n, _, _, _, _) -> n = 1) log_on)
  in
  Alcotest.(check bool) "heap mode inlines" true (inlined heap > 0);
  Alcotest.(check bool) "explore mode inlines" true (inlined on > 0);
  Alcotest.(check bool)
    "explore inlines forced steps only" true (inlined on <= forced);
  Alcotest.(check int) "explore with the toggle off inlines nothing" 0
    (inlined off);
  Alcotest.(check bool) "policy sees identical steps" true (log_on = log_off);
  Alcotest.(check int) "every event is a step" on.E.events (List.length log_on);
  Alcotest.(check int)
    "identity policy replays the heap schedule" heap.E.events on.E.events;
  Alcotest.(check int) "same end time" heap.E.end_time on.E.end_time

let test_toggle_off_disables () =
  let r = with_fastpath false contended_run in
  Alcotest.(check int) "disabled toggle never inlines" 0 (inlined r)

(* The ledger accounts for every event exactly once: its counts sum to
   [events], in both modes, on and off,
   with timed waits (one times out, one is woken), and on a run cut at
   its horizon (discarded events count nowhere). *)
let test_ledger_sums () =
  let check what (r : E.result) =
    Alcotest.(check int)
      (what ^ ": all sum to events")
      r.E.events
      (List.fold_left
         (fun acc (c : Numa_base.Runtime_intf.event_class) ->
           acc + c.ec_inlined + c.ec_scheduled)
         0 r.E.classes)
  in
  let cut () =
    let flag = M.cell' ~name:"fp.flag" 0 in
    E.run ~topology:Topology.small ~n_threads:3 ~horizon:3_000
      (fun ~tid ~cluster:_ ->
        for i = 1 to 100 do
          M.write flag (tid + i);
          M.pause 50
        done)
  in
  let timed () =
    let flag = M.cell' ~name:"fp.flag" 0 in
    E.run ~topology:Topology.small ~n_threads:3 (fun ~tid ~cluster:_ ->
        if tid = 0 then begin
          M.pause 2_000;
          M.write flag 1
        end
        else
          ignore
            (M.wait_until_for flag (fun v -> v = 1)
               ~timeout:(if tid = 1 then 500 else 1_000_000)))
  in
  List.iter
    (fun fastpath ->
      let on = if fastpath then "on" else "off" in
      with_fastpath fastpath @@ fun () ->
      check ("heap " ^ on) (contended_run ());
      check ("explore " ^ on) (contended_run ~policy:(fun ~step:_ ~n:_ _ -> 0) ());
      check ("timed " ^ on) (timed ());
      let r = cut () in
      Alcotest.(check bool) "the horizon cuts the run" true
        (r.E.threads_finished < 3);
      check ("horizon " ^ on) r)
    [ true; false ]

(* [Sim_mem] re-exports the engine's primitives: no wrapper hop between
   a lock and the inlined fast path. *)
let test_sim_mem_is_engine () =
  let same what a b =
    Alcotest.(check bool) (what ^ " is Engine.Mem's") true (Obj.repr a == Obj.repr b)
  in
  same "line" M.line E.Mem.line;
  same "line_site" M.line_site E.Mem.line_site;
  same "cell" M.cell E.Mem.cell;
  same "cell'" M.cell' E.Mem.cell';
  same "init" M.init E.Mem.init;
  same "read" M.read E.Mem.read;
  same "write" M.write E.Mem.write;
  same "cas" M.cas E.Mem.cas;
  same "swap" M.swap E.Mem.swap;
  same "fetch_and_add" M.fetch_and_add E.Mem.fetch_and_add;
  same "wait_until" M.wait_until E.Mem.wait_until;
  same "wait_until_for" M.wait_until_for E.Mem.wait_until_for;
  same "pause" M.pause E.Mem.pause;
  same "cpu_relax" M.cpu_relax E.Mem.cpu_relax;
  same "now" M.now E.Mem.now

(* --- explore mode: schedule exploration on vs off ----------------------- *)

module X = Numa_check.Explore
module D = Numa_check.Decision
module Mut = Numa_check.Mutants.Make (M)

let explore_subjects =
  List.map (fun (e : R.entry) -> (e.R.name, e.R.lock)) R.microbench_locks
  @ List.map (fun (module L : LI.LOCK) -> (L.name, (module L : LI.LOCK))) Mut.all

let explore_agree what f =
  List.iter
    (fun (name, lock) ->
      let sc = X.scenario lock in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s agree" name what)
        true
        (compare (with_fastpath true (fun () -> f sc))
           (with_fastpath false (fun () -> f sc))
        = 0))
    explore_subjects

let test_explore_replays_agree () =
  List.iter
    (fun trace ->
      explore_agree
        ("replay of " ^ D.to_string trace)
        (fun sc -> X.run_once ~record:true sc trace))
    [ D.default; [ { D.at = 3; pick = 1 } ] ]

let test_explore_exhaustive_agrees () =
  explore_agree "exhaustive reports" (fun sc ->
      X.exhaustive ~preemptions:1 ~prune:true sc)

let test_explore_fuzz_agrees () =
  explore_agree "fuzz reports" (fun sc -> X.fuzz ~seed:3 ~runs:50 sc)

(* The first failing fuzz traces of the lost-ticket mutant at fixed
   seeds: a pure function of the PRNG stream and of the steps each run
   presents. The second one passes a run first, so it also pins the
   stream across runs. *)
let test_fuzz_trace_pinned () =
  let lost_ticket = Option.get (Mut.find "TKT!lost-ticket") in
  List.iter
    (fun (sc, seed, runs, trace, invariant) ->
      List.iter
        (fun fastpath ->
          let r = with_fastpath fastpath (fun () -> X.fuzz ~seed ~runs:200 sc) in
          Alcotest.(check int) "runs to the failure" runs r.X.fuzz_runs;
          match r.X.fuzz_failure with
          | None -> Alcotest.fail "lost-ticket mutant escaped fuzzing"
          | Some (t, v) ->
              Alcotest.(check string) "failing trace" trace (D.to_string t);
              Alcotest.(check string)
                "invariant" invariant v.Numa_check.Violation.invariant)
        [ true; false ])
    [
      ( X.scenario ~n_threads:4 ~sections:4 lost_ticket,
        17,
        1,
        "4:1,5:2,6:2,8:1",
        "fifo" );
      (X.scenario lost_ticket, 7, 2, "default", "fifo");
    ]

let () =
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_paths_agree;
          Alcotest.test_case "broadcast wake" `Quick test_broadcast_wake_agrees;
          Alcotest.test_case "immediate wait" `Quick test_immediate_wait_agrees;
          Alcotest.test_case "timed waits" `Quick test_timed_wait_agrees;
          Alcotest.test_case "re-park on stale" `Quick test_repark_agrees;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all microbench locks" `Quick
            test_registry_locks_agree;
          Alcotest.test_case "trace streams" `Quick test_trace_stream_agrees;
          Alcotest.test_case "collapse point" `Quick test_collapse_point_agrees;
        ] );
      ( "explore",
        [
          Alcotest.test_case "replays" `Quick test_explore_replays_agree;
          Alcotest.test_case "exhaustive" `Quick test_explore_exhaustive_agrees;
          Alcotest.test_case "fuzz" `Quick test_explore_fuzz_agrees;
          Alcotest.test_case "fuzz trace pinned" `Quick test_fuzz_trace_pinned;
        ] );
      ( "pins",
        [
          Alcotest.test_case "explore inlines forced steps only" `Quick
            test_explore_forced_only;
          Alcotest.test_case "toggle off" `Quick test_toggle_off_disables;
          Alcotest.test_case "ledger sums" `Quick test_ledger_sums;
          Alcotest.test_case "sim_mem is the engine's" `Quick
            test_sim_mem_is_engine;
        ] );
    ]
