(* Tests of the discrete-event engine, coherence model and Sim_mem. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module H = Numasim.Event_heap
module P = Numa_trace.Profile

(* Events a run retired inline, over every class of its ledger. *)
let inlined (r : E.result) =
  List.fold_left (fun a c -> a + c.Runtime_intf.ec_inlined) 0 r.E.classes

let topo = Topology.small

(* --- Event heap ------------------------------------------------------- *)

let test_heap_order () =
  let h = H.create ~dummy:(-1) in
  List.iter (fun t -> H.add h ~time:t t) [ 5; 1; 9; 3; 3; 0; 7 ];
  let out = ref [] in
  while not (H.is_empty h) do
    out := H.pop h :: !out
  done;
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = H.create ~dummy:(-1) in
  List.iteri (fun i () -> H.add h ~time:42 i) [ (); (); (); () ];
  let order = List.init 4 (fun _ -> H.pop h) in
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3 ] order

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list small_nat)
    (fun times ->
      let h = H.create ~dummy:(-1) in
      List.iter (fun t -> H.add h ~time:t t) times;
      let rec drain acc =
        if H.is_empty h then List.rev acc
        else
          let t = h.H.min in
          let _ = H.pop h in
          drain (t :: acc)
      in
      drain [] = List.sort compare times)

let test_heap_peek_clear () =
  let h = H.create ~dummy:0 in
  Alcotest.(check int) "min empty" max_int h.H.min;
  Alcotest.(check bool) "is_empty" true (H.is_empty h);
  H.add h ~time:7 1;
  H.add h ~time:3 2;
  Alcotest.(check int) "min" 3 h.H.min;
  Alcotest.(check int) "size" 2 (H.size h);
  H.clear h;
  Alcotest.(check bool) "cleared" true (H.is_empty h);
  Alcotest.check_raises "pop after clear"
    (Invalid_argument "Event_heap.pop: empty heap") (fun () ->
      ignore (H.pop h))

(* --- Engine basics ----------------------------------------------------- *)

let test_single_thread_runs () =
  let hits = ref 0 in
  let r =
    E.run ~topology:topo ~n_threads:1 (fun ~tid ~cluster ->
        assert (tid = 0);
        assert (cluster = 0);
        incr hits;
        M.pause 100;
        incr hits)
  in
  Alcotest.(check int) "body ran" 2 !hits;
  Alcotest.(check int) "finished" 1 r.E.threads_finished;
  Alcotest.(check bool) "time advanced" true (r.E.end_time >= 100)

let test_now_advances () =
  let samples = ref [] in
  ignore
    (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
         samples := M.now () :: !samples;
         M.pause 500;
         samples := M.now () :: !samples));
  match !samples with
  | [ t1; t0 ] ->
      Alcotest.(check bool) "pause advances now" true (t1 >= t0 + 500)
  | _ -> Alcotest.fail "expected two samples"

let test_atomic_counter () =
  (* n threads each do k CAS-increments: final value must be n*k, and the
     run must terminate (each CAS loop eventually wins). *)
  let n = 8 and k = 50 in
  let c = M.cell' 0 in
  let final = ref (-1) in
  ignore
    (E.run ~topology:topo ~n_threads:n (fun ~tid:_ ~cluster:_ ->
         for _ = 1 to k do
           let rec loop () =
             let v = M.read c in
             if not (M.cas c ~expect:v ~desire:(v + 1)) then loop ()
           in
           loop ()
         done;
         final := M.read c));
  ignore !final;
  let v =
    (* read the cell from a fresh one-thread run *)
    let out = ref 0 in
    ignore
      (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
           out := M.read c));
    !out
  in
  Alcotest.(check int) "no lost updates" (n * k) v

let test_fetch_and_add () =
  let c = M.cell' 0 in
  let n = 6 and k = 100 in
  let seen_dup = ref false in
  let tickets = Hashtbl.create 64 in
  ignore
    (E.run ~topology:topo ~n_threads:n (fun ~tid:_ ~cluster:_ ->
         for _ = 1 to k do
           let t = M.fetch_and_add c 1 in
           if Hashtbl.mem tickets t then seen_dup := true
           else Hashtbl.add tickets t ()
         done));
  Alcotest.(check bool) "tickets unique" false !seen_dup;
  Alcotest.(check int) "all issued" (n * k) (Hashtbl.length tickets)

let test_swap () =
  let c = M.cell' 7 in
  ignore
    (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
         let old = M.swap c 9 in
         Alcotest.(check int) "swap returns old" 7 old;
         Alcotest.(check int) "swap installs new" 9 (M.read c)))

let test_wait_until_wakes () =
  let flag = M.cell' 0 in
  let woke_at = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
         if tid = 0 then begin
           M.pause 1000;
           M.write flag 1
         end
         else begin
           let v = M.wait_until flag (fun v -> v = 1) in
           Alcotest.(check int) "woken with value" 1 v;
           woke_at := M.now ()
         end));
  Alcotest.(check bool) "woke after write" true (!woke_at >= 1000)

let test_wait_until_for_timeout () =
  let flag = M.cell' 0 in
  let result = ref (Some 99) in
  ignore
    (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
         result := M.wait_until_for flag (fun v -> v = 1) ~timeout:2000));
  Alcotest.(check bool) "timed out" true (!result = None)

let test_wait_until_for_succeeds () =
  let flag = M.cell' 0 in
  let result = ref None in
  ignore
    (E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
         if tid = 0 then begin
           M.pause 500;
           M.write flag 1
         end
         else result := M.wait_until_for flag (fun v -> v = 1) ~timeout:1_000_000));
  Alcotest.(check bool) "got value" true (!result = Some 1)

(* Pauses and timeouts past the end of simulated time saturate at
   [max_int - 1] ([max_int] is the event queue's empty sentinel): they
   neither wrap into the past and fire first, nor break the queue's rule
   that nothing is scheduled before the last popped event. Checked on the
   heap path with the fast path on and off, and in explore mode. *)
let test_huge_delays_saturate () =
  let check name ?policy () =
    let flag = M.cell' 0 and other = M.cell' 0 in
    let woke0 = ref 0 and got = ref None and never = ref (Some 0) in
    let now3 = ref 0 and writer_done = ref max_int in
    let r =
      E.run ~topology:topo ~n_threads:4 ?policy (fun ~tid ~cluster:_ ->
          match tid with
          | 0 ->
              M.pause 100;
              M.pause max_int;
              woke0 := M.now ()
          | 1 -> got := M.wait_until_for flag (fun v -> v = 1) ~timeout:max_int
          | 2 ->
              M.pause 500;
              M.write flag 1;
              writer_done := M.now ()
          | _ ->
              M.pause 50;
              never :=
                M.wait_until_for other (fun v -> v = 1) ~timeout:(max_int - 10);
              now3 := M.now ())
    in
    let eot = max_int - 1 in
    Alcotest.(check int) (name ^ ": all finished") 4 r.E.threads_finished;
    Alcotest.(check bool)
      (name ^ ": writer ran early")
      true (!writer_done < 10_000);
    Alcotest.(check int)
      (name ^ ": pause max_int ends at the end of time")
      eot !woke0;
    Alcotest.(check bool) (name ^ ": huge timeout did not fire early") true
      (!got = Some 1);
    Alcotest.(check bool)
      (name ^ ": unmet wait times out")
      true (!never = None);
    Alcotest.(check int) (name ^ ": ... at the end of time") eot !now3;
    Alcotest.(check int) (name ^ ": end time") eot r.E.end_time
  in
  check "heap" ();
  E.set_fastpath false;
  Fun.protect ~finally:(fun () -> E.set_fastpath true) (check "fast path off");
  check "explore" ~policy:(fun ~step:_ ~n:_ _ -> 0) ()

let test_deadlock_detected () =
  let flag = M.cell' 0 in
  let raised =
    try
      ignore
        (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
             ignore (M.wait_until flag (fun v -> v = 1))));
      None
    with E.Deadlock { live; blocked; _ } -> Some (live, blocked)
  in
  Alcotest.(check (option (pair int int)))
    "deadlock raised" (Some (1, 1)) raised

let test_thread_failure_propagates () =
  let exception Boom in
  let raised =
    try
      ignore
        (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
             raise Boom));
      false
    with E.Thread_failure { tid = 0; exn = Boom; _ } -> true
  in
  Alcotest.(check bool) "failure wrapped" true raised

let test_determinism () =
  let run () =
    let c = M.cell' 0 in
    let r =
      E.run ~topology:topo ~n_threads:6 (fun ~tid:_ ~cluster:_ ->
          for _ = 1 to 30 do
            let rec loop () =
              let v = M.read c in
              if not (M.cas c ~expect:v ~desire:(v + 1)) then loop ()
            in
            loop ();
            M.pause 17
          done)
    in
    (r.E.end_time, r.E.events, r.E.profile.P.totals.P.accesses)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_horizon_stops () =
  let r =
    E.run ~topology:topo ~n_threads:1 ~horizon:5_000
      (fun ~tid:_ ~cluster:_ ->
        let rec loop () =
          M.pause 1_000;
          loop ()
        in
        loop ())
  in
  Alcotest.(check int) "no thread finished" 0 r.E.threads_finished;
  Alcotest.(check bool) "stopped near horizon" true (r.E.end_time <= 5_000)

(* A stopped run discontinues every fiber it leaves unfinished, so each
   body's [finally] runs once: after a cut at the horizon, a [Deadlock],
   an explore run cut at its event cap and a [Thread_failure]. The stuck
   fibers sit in every place one can: a pause, an untimed park and a
   timed wait (parked, with its timeout pending). *)
let test_stopped_runs_unwind () =
  let n_threads = 6 in
  let exception Boom in
  let pause_forever () =
    let rec loop () =
      M.pause 1_000;
      loop ()
    in
    loop ()
  in
  let stuck flag ~tid =
    match tid mod 3 with
    | 0 -> pause_forever ()
    | 1 -> ignore (M.wait_until flag (fun v -> v = 1))
    | _ ->
        ignore (M.wait_until_for flag (fun v -> v = 1) ~timeout:1_000_000_000)
  in
  let check name ~expect run body =
    let unwound = ref 0 in
    let outcome =
      match
        run (fun ~tid ~cluster:_ ->
            Fun.protect ~finally:(fun () -> incr unwound) (fun () -> body ~tid))
      with
      | (r : E.result) -> Printf.sprintf "cut, %d finished" r.E.threads_finished
      | exception E.Deadlock _ -> "deadlock"
      | exception E.Thread_failure { exn = Boom; _ } -> "thread failure"
    in
    Alcotest.(check string) (name ^ ": outcome") expect outcome;
    Alcotest.(check int) (name ^ ": every body unwound") n_threads !unwound
  in
  let flag = M.cell' 0 in
  check "horizon" ~expect:"cut, 0 finished"
    (E.run ~topology:topo ~n_threads ~horizon:5_000)
    (stuck flag);
  check "deadlock" ~expect:"deadlock"
    (E.run ~topology:topo ~n_threads)
    (fun ~tid:_ -> ignore (M.wait_until flag (fun v -> v = 1)));
  check "explore event cap" ~expect:"cut, 0 finished"
    (E.run ~topology:topo ~n_threads
       ~policy:(fun ~step:_ ~n:_ _ -> 0)
       ~max_events:200)
    (stuck flag);
  check "thread failure" ~expect:"thread failure"
    (E.run ~topology:topo ~n_threads)
    (fun ~tid ->
      if tid = 0 then begin
        M.pause 5_000;
        raise Boom
      end
      else stuck flag ~tid);
  (* A store a fiber issues while it unwinds is discontinued too. *)
  let wrote = M.cell' 0 in
  ignore
    (E.run ~topology:topo ~n_threads ~horizon:5_000 (fun ~tid ~cluster:_ ->
         Fun.protect
           ~finally:(fun () -> M.write wrote 1)
           (fun () -> stuck flag ~tid)));
  let seen = ref (-1) in
  ignore
    (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
         seen := M.read wrote));
  Alcotest.(check int) "no store while unwinding" 0 !seen

(* --- Coherence model --------------------------------------------------- *)
(* --- Coherence model --------------------------------------------------- *)

let test_remote_costs_more () =
  (* Two threads on different clusters ping-pong a line; a single thread
     hammering its own line pays far less per access. *)
  let lat = ref 0 and local = ref 0 in
  let c = M.cell' 0 in
  ignore
    (E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
         if tid = 0 then begin
           let t0 = M.now () in
           for _ = 1 to 100 do
             M.write c 1
           done;
           local := M.now () - t0
         end
         else begin
           M.pause 10_000;
           (* after thread 0 is done, all lines are remote-owned *)
           let t0 = M.now () in
           for _ = 1 to 100 do
             ignore (M.read c)
           done;
           lat := M.now () - t0
         end));
  (* thread 1's first read is a remote transfer, rest are cached *)
  Alcotest.(check bool) "remote read slower than l1 loop" true (!lat > 0);
  Alcotest.(check bool) "local loop cheap" true (!local < 100 * 20)

let test_coherence_miss_counted () =
  let c = M.cell' 0 in
  let r =
    E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
        if tid = 0 then M.write c 1
        else begin
          M.pause 1_000;
          ignore (M.read c)
        end)
  in
  Alcotest.(check bool)
    "at least one coherence miss" true
    (r.E.profile.P.totals.P.coherence_misses >= 1)

let test_uniform_latency_no_numa_penalty () =
  (* Under the uniform (UMA) profile remote and local transfers cost the
     same; sanity-check the parameters plumb through. *)
  let topo_uma =
    Topology.make ~name:"uma" ~clusters:2 ~threads_per_cluster:2
      Latency.uniform
  in
  let c = M.cell' 0 in
  let r =
    E.run ~topology:topo_uma ~n_threads:2 (fun ~tid ~cluster:_ ->
        if tid = 0 then M.write c 1 else ignore (M.read c))
  in
  Alcotest.(check bool) "ran" true (r.E.threads_finished = 2)


(* --- additional engine semantics ----------------------------------------- *)

let test_false_sharing_costs () =
  (* Two cells on ONE line written by different clusters ping-pong the
     line; the same traffic on separate lines is cheaper. *)
  let run shared =
    let l1 = M.line () in
    let a, b =
      if shared then (M.cell l1 0, M.cell l1 0)
      else (M.cell l1 0, M.cell' 0)
    in
    let r =
      E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
          let c = if tid = 0 then a else b in
          for _ = 1 to 200 do
            M.write c 1
          done)
    in
    r.E.profile.P.totals.P.coherence_misses
  in
  let shared_misses = run true in
  let split_misses = run false in
  Alcotest.(check bool)
    (Printf.sprintf "false sharing causes misses (%d > %d)" shared_misses
       split_misses)
    true
    (shared_misses > 4 * (split_misses + 1))

let test_wait_timeout_exact_moment () =
  (* A write landing exactly at the deadline: either outcome is legal,
     but the engine must neither hang nor deliver both. *)
  let flag = M.cell' 0 in
  let outcomes = ref [] in
  ignore
    (E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
         if tid = 0 then begin
           M.pause 1_000;
           M.write flag 1
         end
         else begin
           let r = M.wait_until_for flag (fun v -> v = 1) ~timeout:1_000 in
           outcomes := r :: !outcomes
         end));
  Alcotest.(check int) "exactly one outcome" 1 (List.length !outcomes)

let test_multiple_waiters_one_writer () =
  (* All parked waiters must be woken by a single satisfying write. *)
  let flag = M.cell' 0 in
  let woken = ref 0 in
  ignore
    (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster:_ ->
         if tid = 0 then begin
           M.pause 5_000;
           M.write flag 1
         end
         else begin
           ignore (M.wait_until flag (fun v -> v = 1));
           incr woken
         end));
  Alcotest.(check int) "all seven waiters woken" 7 !woken

let test_waiter_repark_on_stale_value () =
  (* The flag flips to 1 and instantly back to 0: a waiter whose wake-up
     read arrives after the flip-back must re-park, not act on the stale
     value. Thread 1 sits closer (same line traffic), thread 2 remote. *)
  let flag = M.cell' 0 in
  let seen = ref (-1) in
  ignore
    (E.run ~topology:topo ~n_threads:3 (fun ~tid ~cluster:_ ->
         if tid = 0 then begin
           M.pause 2_000;
           M.write flag 1;
           M.write flag 0;
           M.pause 20_000;
           M.write flag 1
         end
         else if tid = 1 then begin
           let v = M.wait_until flag (fun v -> v = 1) in
           (* Whenever we wake, the value we see must satisfy the pred. *)
           if v <> 1 then seen := v
         end
         else begin
           let v = M.wait_until flag (fun v -> v = 1) in
           if v <> 1 then seen := v
         end));
  Alcotest.(check int) "no stale delivery" (-1) !seen

let test_pause_zero_and_negative () =
  ignore
    (E.run ~topology:topo ~n_threads:1 (fun ~tid:_ ~cluster:_ ->
         M.pause 0;
         M.pause (-5);
         M.pause 1));
  Alcotest.(check pass) "no crash" () ()

(* Each mode has its own stop rule: the heap schedule stops at its
   horizon, explore mode at its event cap. Given to the other mode, the
   rule would be ignored, so the engine rejects it before any fiber
   starts. *)
let test_engine_rejects_foreign_stop_rule () =
  let ran = ref false in
  let reject f =
    try
      ignore (f (fun ~tid:_ ~cluster:_ -> ran := true));
      false
    with Invalid_argument _ -> true
  in
  let first ~step:_ ~n:_ _ = 0 in
  Alcotest.(check bool)
    "horizon with a policy" true
    (reject (E.run ~topology:topo ~n_threads:1 ~horizon:100 ~policy:first));
  Alcotest.(check bool)
    "max_events without a policy" true
    (reject (E.run ~topology:topo ~n_threads:1 ~max_events:100));
  Alcotest.(check bool) "no thread ran" false !ran

let test_engine_rejects_bad_thread_counts () =
  let reject n =
    try
      ignore (E.run ~topology:topo ~n_threads:n (fun ~tid:_ ~cluster:_ -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero threads" true (reject 0);
  Alcotest.(check bool) "negative threads" true (reject (-3));
  (* Beyond-capacity counts oversubscribe: surplus tids wrap onto
     contexts and the run completes normally. *)
  let over = Numa_base.Topology.total_threads topo + 1 in
  let r =
    E.run ~topology:topo ~n_threads:over (fun ~tid:_ ~cluster:_ -> M.pause 10)
  in
  Alcotest.(check int) "oversubscribed run completes" over r.E.threads_finished;
  (* tid [total] shares context 0's cluster. *)
  let clusters = Array.make over (-1) in
  ignore
    (E.run ~topology:topo ~n_threads:over (fun ~tid ~cluster ->
         clusters.(tid) <- cluster));
  Alcotest.(check int) "wrapped cluster" clusters.(0)
    clusters.(Numa_base.Topology.total_threads topo)

let test_events_counted () =
  let r =
    E.run ~topology:topo ~n_threads:2 (fun ~tid:_ ~cluster:_ ->
        for _ = 1 to 10 do
          M.pause 10
        done)
  in
  Alcotest.(check bool) "events recorded" true (r.E.events >= 20)

(* The wait path's host allocation, in minor-heap words per wait: two
   fibers take turns through one cell, each parking in [wait_until]
   until the other's slow [write] wakes it. The predicates are built
   once per fiber, so the count is the engine's own: the [Wait] and
   [Store] effects, their continuations and handler closures, the
   wait's record, its waiter and its scheduled re-check. The previous
   wait path (two refs, a park/attempt closure block, a waiter, check
   closure and option per park, an [Op] record and payload closure per
   write) allocated 100.0 words per wait here; this one allocates 55.0.
   The budget is 40% below the former. *)
let test_wait_alloc_budget () =
  let rounds = 5_000 in
  let turn = M.cell' 0 in
  let body ~tid ~cluster:_ =
    let mine v = v land 1 = tid in
    for i = 0 to rounds - 1 do
      ignore (M.wait_until turn mine);
      M.write turn ((2 * i) + tid + 1)
    done
  in
  let fastpath = E.fastpath_enabled () in
  E.set_fastpath true;
  Fun.protect ~finally:(fun () -> E.set_fastpath fastpath) @@ fun () ->
  (* A first run warms the engine's recycled queue. *)
  ignore (E.run ~topology:topo ~n_threads:2 body);
  let before = Gc.minor_words () in
  let r = E.run ~topology:topo ~n_threads:2 body in
  let words = Gc.minor_words () -. before in
  let per_wait = words /. float_of_int (2 * rounds) in
  let woken =
    List.fold_left
      (fun acc c ->
        if c.Runtime_intf.ec_class = E.class_to_string E.Spin_wake then
          acc + c.Runtime_intf.ec_scheduled
        else acc)
      0 r.E.classes
  in
  Alcotest.(check bool) "every wait but the first parks and is woken" true
    (woken >= (2 * rounds) - 1);
  if per_wait > 0.6 *. 100.0 then
    Alcotest.failf "%.1f minor words per wait; the budget is %.1f" per_wait
      (0.6 *. 100.0)

(* One fiber on its own cell: after the first touch, a memory miss,
   every access is an L1 hit the fast path retires inline, so the run
   schedules nothing but its Start and that miss; and the hits allocate
   nothing (the build inlines across modules, so an inline hit makes no
   call). *)
let test_inline_hit_alloc () =
  let rounds = 20_000 in
  let c = M.cell' 0 in
  let body ~tid:_ ~cluster:_ =
    for _ = 1 to rounds do
      let v = M.read c in
      M.write c (v + 1);
      ignore (M.cas c ~expect:(v + 1) ~desire:(v + 2));
      ignore (M.swap c (v + 3));
      ignore (M.fetch_and_add c 1)
    done
  in
  let fastpath = E.fastpath_enabled () in
  E.set_fastpath true;
  Fun.protect ~finally:(fun () -> E.set_fastpath fastpath) @@ fun () ->
  (* A first run warms the engine's recycled queue. *)
  ignore (E.run ~topology:topo ~n_threads:1 body);
  let before = Gc.minor_words () in
  let r = E.run ~topology:topo ~n_threads:1 body in
  let words = Gc.minor_words () -. before in
  List.iter
    (fun c ->
      let k = c.Runtime_intf.ec_class in
      let once = [ E.class_to_string E.Start; E.class_to_string E.Op_read ] in
      Alcotest.(check int)
        (k ^ " events scheduled")
        (if List.mem k once then 1 else 0)
        c.Runtime_intf.ec_scheduled)
    r.E.classes;
  let per_op = words /. float_of_int (5 * rounds) in
  if per_op > 0.01 then
    Alcotest.failf "%.4f minor words per inline hit; the budget is 0.01"
      per_op

(* A simulated cell is one block of two fields, its value and its line:
   3 words beyond the line it sits on. *)
let test_cell_footprint () =
  let line = M.line ~name:"footprint" () in
  let c = M.cell line 0 in
  Alcotest.(check int) "words a cell adds to its line" 3
    (Obj.reachable_words (Obj.repr c) - Obj.reachable_words (Obj.repr line))

(* Table 1's store, two cells per item on the item's own line: at most
   480,000 words. It reached 1,099,292 when each cell also held a ref
   and a pre-built read effect, and 576,021 when each line also carried
   a waiter queue of its own (5 words) from birth. *)
let test_kv_store_footprint () =
  let words =
    Obj.reachable_words (Obj.repr (Harness.Experiments.kv_store ()))
  in
  let budget = 480_000 in
  if words > budget then
    Alcotest.failf "the KV store reaches %d words; the budget is %d" words
      budget

module C = Numasim.Coherence
module W = Numasim.Waitq

(* A fresh line is one 9-word block (8 fields): its label and the
   shared empty waiter queue are not its own. A line that built its own
   queue at birth reached 14. Reached from one block beside the line,
   the queue and the label count once, and a triple's block is one word
   more than a pair's. *)
let test_line_footprint () =
  let name = "footprint" in
  let line = C.make_line ~name () in
  let words o = Obj.reachable_words (Obj.repr o) in
  Alcotest.(check int) "words a fresh line reaches of its own" 9
    (words (line, W.none, name) - words (W.none, name) - 1)

(* [Waitq.none] is never written: empty, owned by no run, unflagged. *)
let check_none_pristine what =
  Alcotest.(check bool)
    (what ^ ": the shared queue stays empty and unflagged")
    true
    (W.is_empty W.none && W.none.W.tail == W.nil
    && W.none.W.epoch = min_int && not W.none.W.changed)

let test_lazy_waitq () =
  let fresh = E.Mem.line () in
  Alcotest.(check bool) "a fresh line shares the empty queue" true
    (fresh.C.wq == W.none);
  check_none_pristine "fresh";
  W.note_change W.none;
  check_none_pristine "a change noted on it";
  (* Every kind of store, on both paths, to a line nobody waits on:
     value-changing writes, failed and successful CASes, swaps and
     fetch-and-adds, from two threads so that some go remote. *)
  List.iter
    (fun fp ->
      let what = if fp then "fast path on" else "fast path off" in
      let saved = E.fastpath_enabled () in
      E.set_fastpath fp;
      Fun.protect ~finally:(fun () -> E.set_fastpath saved) @@ fun () ->
      let line = E.Mem.line ~name:"nobody waits" () in
      let c = E.Mem.cell line 0 in
      let r =
        E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
            for i = 1 to 20 do
              E.Mem.write c ((tid * 100) + i);
              let v = E.Mem.read c in
              ignore (E.Mem.cas c ~expect:(v + 1_000) ~desire:(-1));
              ignore (E.Mem.cas c ~expect:v ~desire:(v + 1));
              ignore (E.Mem.swap c (v + 2));
              ignore (E.Mem.fetch_and_add c 1)
            done)
      in
      Alcotest.(check int)
        (what ^ ": no walk") 0 r.E.profile.P.totals.P.waiter_scans;
      Alcotest.(check bool)
        (what ^ ": the line still shares the empty queue")
        true (line.C.wq == W.none);
      check_none_pristine what)
    [ true; false ];
  (* A park gives the line a queue of its own, which it keeps across
     runs; the value-changing write that releases the waiter walks it
     once, the failed CAS and the same-value write before it not at
     all. *)
  let line = E.Mem.line ~name:"parked on" () in
  let flag = E.Mem.cell line 0 in
  let park () =
    E.Mem.init flag 0;
    let r =
      E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
          if tid = 0 then begin
            E.Mem.pause 5_000;
            assert (not (E.Mem.cas flag ~expect:5 ~desire:1));
            E.Mem.write flag 0;
            E.Mem.write flag 1
          end
          else ignore (E.Mem.wait_until flag (fun v -> v = 1)))
    in
    r.E.profile.P.totals.P.waiter_scans
  in
  Alcotest.(check int) "the releasing write walks once" 1 (park ());
  let own = line.C.wq in
  Alcotest.(check bool) "a park gives the line its own queue" true
    (own != W.none);
  Alcotest.(check bool) "the run leaves the queue cleared" true
    (W.is_empty own && own.W.epoch = min_int && not own.W.changed);
  Alcotest.(check int) "a second run walks once too" 1 (park ());
  Alcotest.(check bool) "the line keeps its queue" true (line.C.wq == own);
  check_none_pristine "after parks"

let test_waiter_scans_counted () =
  (* Writes to lines nobody waits on must skip the waiter machinery
     entirely: the zero-waiter fast path is a single field load, counted
     by [waiter_scans] staying at 0. A parked waiter makes the next
     satisfying write scan the queue, bumping the counter. *)
  let no_waiters =
    let c = M.cell' 0 in
    let r =
      E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
          for i = 1 to 50 do
            M.write c ((tid * 100) + i)
          done)
    in
    r.E.profile.P.totals.P.waiter_scans
  in
  Alcotest.(check int) "writes without waiters scan nothing" 0 no_waiters;
  let with_waiter =
    let flag = M.cell' 0 in
    let r =
      E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
          if tid = 0 then begin
            M.pause 5_000;
            M.write flag 1
          end
          else ignore (M.wait_until flag (fun v -> v = 1)))
    in
    r.E.profile.P.totals.P.waiter_scans
  in
  Alcotest.(check bool)
    "write over a parked waiter scans the queue" true (with_waiter >= 1);
  (* Scans are change-gated: a failed CAS and a store of the value
     already in the cell cannot satisfy a parked predicate, so only the
     value-changing write that releases the waiter walks the queue. *)
  let no_op_stores =
    let flag = M.cell' 0 in
    let r =
      E.run ~topology:topo ~n_threads:2 (fun ~tid ~cluster:_ ->
          if tid = 0 then begin
            M.pause 5_000;
            assert (not (M.cas flag ~expect:5 ~desire:1));
            M.write flag 0;
            M.write flag 1
          end
          else ignore (M.wait_until flag (fun v -> v = 1)))
    in
    r.E.profile.P.totals.P.waiter_scans
  in
  Alcotest.(check int)
    "failed CAS and same-value write over a parked waiter scan nothing" 1
    no_op_stores

let test_fastpath_counter_parity () =
  (* [waiter_scans] and the hit counters must count identically whether
     an access retires inline (engine fast path) or through the effect
     handler — rerun the waiter-scan and determinism workloads under
     both settings and demand equal stats (test_fastpath holds the full
     differential; this pins the specific counters). *)
  let with_fastpath b f =
    let saved = E.fastpath_enabled () in
    E.set_fastpath b;
    Fun.protect ~finally:(fun () -> E.set_fastpath saved) f
  in
  let stats_of (r : E.result) =
    let c = r.E.profile.P.totals in
    ( r.E.end_time,
      r.E.events,
      c.P.accesses,
      c.P.l1_hits,
      c.P.local_hits,
      c.P.coherence_misses,
      c.P.waiter_scans )
  in
  let waiter_workload () =
    let flag = M.cell' 0 in
    E.run ~topology:topo ~n_threads:3 (fun ~tid ~cluster:_ ->
        if tid = 0 then begin
          M.pause 5_000;
          M.write flag 1
        end
        else ignore (M.wait_until flag (fun v -> v = 1)))
  in
  let cas_workload () =
    let c = M.cell' 0 in
    E.run ~topology:topo ~n_threads:6 (fun ~tid:_ ~cluster:_ ->
        for _ = 1 to 30 do
          let rec loop () =
            let v = M.read c in
            if not (M.cas c ~expect:v ~desire:(v + 1)) then loop ()
          in
          loop ();
          M.pause 17
        done)
  in
  List.iter
    (fun (name, engages, workload) ->
      let on = with_fastpath true workload in
      let off = with_fastpath false workload in
      (* The waiter workload is all first-touches and cross-thread
         traffic — nothing is eligible, which is itself worth pinning;
         the CAS storm must actually exercise the inline path. *)
      Alcotest.(check bool)
        (name ^ ": fast path engagement") true
        (inlined on > 0 = engages && inlined off = 0);
      Alcotest.(check bool)
        (name ^ ": counters identical on both paths")
        true
        (stats_of on = stats_of off))
    [ ("waiter", false, waiter_workload); ("cas", true, cas_workload) ]

let suite =
  [
    ( "event_heap",
      [
        Alcotest.test_case "pops sorted" `Quick test_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "peek and clear" `Quick test_heap_peek_clear;
        QCheck_alcotest.to_alcotest prop_heap_sorted;
      ] );
    ( "engine",
      [
        Alcotest.test_case "single thread" `Quick test_single_thread_runs;
        Alcotest.test_case "now advances" `Quick test_now_advances;
        Alcotest.test_case "atomic counter" `Quick test_atomic_counter;
        Alcotest.test_case "fetch_and_add" `Quick test_fetch_and_add;
        Alcotest.test_case "swap" `Quick test_swap;
        Alcotest.test_case "wait_until wakes" `Quick test_wait_until_wakes;
        Alcotest.test_case "wait timeout" `Quick test_wait_until_for_timeout;
        Alcotest.test_case "wait succeeds" `Quick test_wait_until_for_succeeds;
        Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
        Alcotest.test_case "thread failure" `Quick test_thread_failure_propagates;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "horizon" `Quick test_horizon_stops;
        Alcotest.test_case "stopped runs unwind" `Quick
          test_stopped_runs_unwind;
      ] );
    ( "engine_edge",
      [
        Alcotest.test_case "false sharing" `Quick test_false_sharing_costs;
        Alcotest.test_case "timeout at write instant" `Quick
          test_wait_timeout_exact_moment;
        Alcotest.test_case "broadcast wake" `Quick
          test_multiple_waiters_one_writer;
        Alcotest.test_case "re-park on stale" `Quick
          test_waiter_repark_on_stale_value;
        Alcotest.test_case "pause edge values" `Quick
          test_pause_zero_and_negative;
        Alcotest.test_case "huge delays saturate" `Quick
          test_huge_delays_saturate;
        Alcotest.test_case "thread count validation" `Quick
          test_engine_rejects_bad_thread_counts;
        Alcotest.test_case "stop rule of the other mode" `Quick
          test_engine_rejects_foreign_stop_rule;
        Alcotest.test_case "events counted" `Quick test_events_counted;
        Alcotest.test_case "waiter scans counted" `Quick
          test_waiter_scans_counted;
        Alcotest.test_case "wait allocation budget" `Quick
          test_wait_alloc_budget;
        Alcotest.test_case "inline hits allocate nothing" `Quick
          test_inline_hit_alloc;
        Alcotest.test_case "cell footprint" `Quick test_cell_footprint;
        Alcotest.test_case "KV store footprint" `Quick
          test_kv_store_footprint;
        Alcotest.test_case "line footprint" `Quick test_line_footprint;
        Alcotest.test_case
          "a line has no waiter queue until a fiber parks on it" `Quick
          test_lazy_waitq;
        Alcotest.test_case "fastpath counter parity" `Quick
          test_fastpath_counter_parity;
      ] );
    ( "coherence",
      [
        Alcotest.test_case "remote costs more" `Quick test_remote_costs_more;
        Alcotest.test_case "miss counted" `Quick test_coherence_miss_counted;
        Alcotest.test_case "uma profile" `Quick test_uniform_latency_no_numa_penalty;
      ] );
  ]

let () = Alcotest.run "numasim" suite
