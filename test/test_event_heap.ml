(* Event_heap property suite. The calendar queue and its overflow heap
   use unchecked array accesses (Array.unsafe_get/set) for the engine
   hot path; this suite is the safety net backing that choice:
   randomized drains exercise growth well past the initial 64-slot
   capacity, interleaved add/pop/clear sequences, the add precondition
   (no time before the last pop), and the exact (time, seq) FIFO
   tie-break the golden schedules depend on — including a differential
   check of the calendar queue against the 4-ary heap ([H.Far]) across
   the near window's edge, the coarse buckets' edges and the coarse
   span's, the wrap-around of both tiers, the coarse-to-near cascade
   and the overflow migration.

   Also here: the payload-retention regression tests (popped, cleared
   and released slots must not keep closures reachable from the backing
   arrays), a check that the engine's recycled queue is invisible to
   the next run, and a differential check that heap mode and explore
   mode under the identity policy execute the same program identically
   — the invariant that lets the explorer reuse every engine pin. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module H = Numasim.Event_heap

(* --- drain order: strict (time, seq) ----------------------------------- *)

(* Payloads record insertion order, so a drain checks both keys at once:
   times must be nondecreasing, and ties must pop in insertion order.
   The expected sequence is exactly a stable sort of the input. *)
let drain_matches_stable_sort times =
  let h = H.create ~dummy:(-1) in
  List.iteri (fun i t -> H.add h ~time:t i) times;
  let n = List.length times in
  let out = ref [] in
  while not (H.is_empty h) do
    let t = H.min_time h in
    let i = H.pop h in
    out := (t, i) :: !out
  done;
  let got = List.rev !out in
  let expected =
    List.stable_sort
      (fun (t1, _) (t2, _) -> compare t1 t2)
      (List.mapi (fun i t -> (t, i)) times)
  in
  H.size h = 0 && List.length got = n && got = expected

let prop_drain_order =
  (* Lists up to ~300 entries: growth doubles 64 -> 128 -> 256 under
     test, with a narrow time range so ties are plentiful. *)
  QCheck.Test.make ~name:"drain = stable sort by time" ~count:300
    QCheck.(list_of_size (Gen.int_bound 300) (int_bound 50))
    drain_matches_stable_sort

let prop_interleaved =
  (* Random add/pop interleavings against a reference list model. *)
  QCheck.Test.make ~name:"interleaved add/pop matches model" ~count:300
    QCheck.(list_of_size (Gen.int_bound 200) (option (int_bound 20)))
    (fun script ->
      (* [Some t] = add at time t; [None] = pop (if non-empty). The model
         is a sorted association list keyed by (time, seq). An add below
         the last popped time must raise and leave the queue as it was. *)
      let h = H.create ~dummy:(-1) in
      let model = ref [] in
      let seq = ref 0 in
      let last = ref 0 in
      let ok = ref true in
      List.iter
        (fun step ->
          match step with
          | Some t when t < !last ->
              let n = H.size h and m = H.min_time h in
              (match H.add h ~time:t !seq with
              | () -> ok := false
              | exception Invalid_argument _ -> ());
              if H.size h <> n || H.min_time h <> m then ok := false
          | Some t ->
              H.add h ~time:t !seq;
              model :=
                List.merge
                  (fun (k1, _) (k2, _) -> compare k1 k2)
                  !model
                  [ ((t, !seq), !seq) ];
              incr seq
          | None -> (
              match !model with
              | [] -> if not (H.is_empty h) then ok := false
              | ((t, _), payload) :: rest ->
                  model := rest;
                  last := t;
                  if H.min_time h <> t || H.pop h <> payload then ok := false))
        script;
      !ok && H.size h = List.length !model)

(* --- the calendar queue against the 4-ary heap --------------------------- *)

(* The queue's geometry (Event_heap's [w], [g] and [span]): the deltas
   that matter sit on either side of the near window's width, of a
   coarse bucket's edge and of the coarse span's end. *)
let w = 4096
let g = 2048
let span = 128 * g

(* A script step: add an event [delta] ns after the last popped time
   (the engine's rule: nothing is scheduled before [now]), add one at
   an offset from a tier boundary, pop, or clear. [Edge (k, off)] aims
   at [off] ns from the [k]-th coarse-bucket edge after the last popped
   time; [Limit (k, off)] at [off] ns from the near tier's direct-add
   bound plus [k] coarse spans ([k = 0]: near/coarse, [k = 1]:
   coarse/overflow). Aimed times below the last pop are clamped to it. *)
type step = Add of int | Edge of int * int | Limit of int * int | Pop | Clear

let pp_step = function
  | Add d -> Printf.sprintf "add +%d" d
  | Edge (k, off) -> Printf.sprintf "edge %d %+d" k off
  | Limit (k, off) -> Printf.sprintf "limit+%d*span %+d" k off
  | Pop -> "pop"
  | Clear -> "clear"

(* Deltas concentrated on the tiers' edges and on a few repeated values,
   so same-time ties straddle every boundary: an event added [span + 1]
   ahead waits in the overflow tier, later adds at the same time land
   in its coarse bucket after it migrated, and still later ones in its
   near bucket after the cascade. *)
let gen_delta =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 40);
        (2, oneofl [ 0; g - 1; g; g + 1; w - 1; w; w + 1; 2 * w; (2 * w) + 1 ]);
        (1, int_range (w - 8) (w + 8));
        (1, int_range w (20 * w));
        (1, oneofl [ span - 1; span; span + 1; span + w; 2 * span ]);
        (1, int_range (span - g) (span + g));
        (1, oneofl [ 1_000_000; 1_000_000_000 ]);
      ])

let gen_off = QCheck.Gen.oneofl [ -1; 0; 1 ]

let gen_script ~phases =
  QCheck.Gen.(
    let step delta =
      frequency
        [
          (5, map (fun d -> Add d) delta);
          (1, map2 (fun k off -> Edge (k, off)) (int_bound 4) gen_off);
          (1, map2 (fun k off -> Limit (k, off)) (int_bound 1) gen_off);
          (4, return Pop);
        ]
    in
    let phase =
      oneof
        [
          (* mixed traffic, with the odd clear *)
          list_size (int_bound 150)
            (frequency [ (50, step gen_delta); (1, return Clear) ]);
          (* near only *)
          list_size (int_bound 150) (step (int_bound (g - 1)));
          (* coarse only *)
          list_size (int_bound 150) (step (int_range w (span - 1)));
          (* overflow and beyond *)
          list_size (int_bound 150) (step (int_range span (50 * span)));
          (* long strides: both tiers' bucket indices wrap *)
          list_size (int_bound 300)
            (step
               (oneofl
                  [ w - 1; w / 2; (w / 2) + 1; 3 * w / 4; g + 1; span - 1;
                    (span / 2) + 1 ]));
        ]
    in
    map List.concat (list_repeat phases phase))

(* Run [script] against both queues, checking every pop (time and
   payload), every size and, at the end, the full drain. *)
let calendar_matches_far script =
  let cal = H.create ~dummy:(-1) and far = H.Far.create ~dummy:(-1) in
  let last = ref 0 and seq = ref 0 and ok = ref true in
  let add time =
    let time = if time < !last then !last else time in
    H.add cal ~time !seq;
    H.Far.add far ~time !seq;
    incr seq
  in
  let pop () =
    let t = H.min_time cal in
    if t <> H.Far.min_time far then ok := false;
    if H.pop cal <> H.Far.pop far then ok := false;
    last := t
  in
  List.iter
    (fun step ->
      (match step with
      | Add d -> add (!last + d)
      | Edge (k, off) -> add ((((!last / g) + k) * g) + off)
      | Limit (k, off) -> add (cal.H.limit + (k * span) + off)
      | Pop -> if not (H.Far.is_empty far) then pop ()
      | Clear ->
          H.clear cal;
          H.Far.clear far;
          last := 0);
      if H.size cal <> H.Far.size far || H.is_empty cal <> H.Far.is_empty far
      then ok := false)
    script;
  while not (H.Far.is_empty far) do
    pop ()
  done;
  !ok && H.is_empty cal && H.min_time cal = max_int

let prop_calendar_vs_far =
  QCheck.Test.make ~name:"calendar queue = 4-ary heap" ~count:600
    (QCheck.make
       ~print:(fun s -> String.concat "; " (List.map pp_step s))
       (gen_script ~phases:3))
    calendar_matches_far

(* Deterministic cases for each edge the generator aims at. *)
let calendar_edges () =
  let check name script =
    Alcotest.(check bool) name true (calendar_matches_far script)
  in
  List.iter
    (fun d ->
      check (Printf.sprintf "delta %d" d)
        [ Add d; Add 0; Add d; Pop; Add d; Add (d + 1); Pop; Pop; Pop ])
    [
      0; g - 1; g; g + 1; w - 1; w; w + 1; span - 1; span; span + 1;
      span + w; 1_000_000_000;
    ];
  List.iter
    (fun (k, off) ->
      check (Printf.sprintf "edge %d %+d" k off)
        [ Edge (k, off); Add 1; Edge (k, off); Pop; Edge (k, off); Pop; Pop ];
      check (Printf.sprintf "limit + %d spans %+d" k off)
        [ Limit (k, off); Add 1; Limit (k, off); Pop; Limit (k, off); Pop ])
    [ (0, -1); (0, 0); (0, 1); (1, -1); (1, 0); (1, 1); (3, -1); (3, 1) ];
  (* Ties across the near/coarse boundary: three coarse events at 2w,
     the window reaches them when the event at w + 1 pops, and direct
     adds at 2w must queue behind them. *)
  check "ties across the coarse/near boundary"
    ([ Add (2 * w); Add (2 * w); Add (w + 1); Add (2 * w); Pop ]
    @ [ Add (w - 1); Add (w - 1); Add (w - 1); Pop; Pop; Pop; Pop ]);
  (* The same across the overflow/coarse boundary, then on into the
     near tier: a tie at [span + w] sits in all three tiers over time. *)
  check "ties across all three tiers"
    ([ Add (span + w); Add (span + w); Add (w + 1); Pop; Add (span - 1) ]
    @ [ Add (span - 1); Pop; Add (w - 1); Add 1; Pop; Add 0; Pop; Pop ]
    @ [ Pop; Pop ]);
  (* A cascade meets direct adds at the same time: coarse events at one
     time, a pop that moves the bound past their bucket, direct adds at
     that time, more pops. *)
  check "cascade meets direct adds"
    (List.concat
       (List.init 20 (fun i ->
            [ Add (w + (i * 37)); Add (w + (i * 37)); Add g; Pop ]
            @ [ Add (w - g + (i * 37)); Pop; Add 0; Pop ])));
  (* 200 windows of strides just under w: the near index wraps; 300
     strides of about half the span: the coarse index wraps. *)
  check "wrap over many windows"
    (List.concat (List.init 200 (fun _ -> [ Add (w - 1); Add (w / 2); Pop ])));
  check "wrap over many spans"
    (List.concat
       (List.init 300 (fun i ->
            [ Add ((span / 2) + i); Add (g + 1); Add (span - 1); Pop ])));
  check "overflow only"
    (List.concat (List.init 50 (fun i -> [ Add (span + i); Pop ])));
  check "coarse only"
    (List.concat (List.init 50 (fun i -> [ Add (w + (i * 1000)); Pop ])));
  check "near only"
    (List.concat (List.init 50 (fun i -> [ Add (i mod 7); Add 3; Pop ])));
  (* The precondition guards every tier and the sentinel. *)
  let h = H.create ~dummy:0 in
  H.add h ~time:10 1;
  H.add h ~time:(10 * w) 2;
  ignore (H.pop h);
  List.iter
    (fun t ->
      Alcotest.check_raises (Printf.sprintf "add at %d" t)
        (Invalid_argument
           "Event_heap.add: time before the last pop, or max_int")
        (fun () -> H.add h ~time:t 3))
    [ 9; -1; max_int ];
  Alcotest.(check (pair int int))
    "unchanged" (1, 10 * w)
    (H.size h, H.min_time h);
  H.add h ~time:10 4;
  let first = H.pop h in
  let second = H.pop h in
  Alcotest.(check (pair int int)) "a tie with the last pop is fine" (4, 2)
    (first, second);
  (* Times next to [max_int]: the direct-add bound saturates. *)
  H.add h ~time:(max_int - 1) 5;
  H.add h ~time:(max_int - w - 1) 6;
  H.add h ~time:(max_int - 1) 7;
  let order = List.init 3 (fun _ -> H.pop h) in
  Alcotest.(check (list int)) "near max_int" [ 6; 5; 7 ] order;
  H.add h ~time:(max_int - 1) 8;
  Alcotest.(check int) "after a pop at max_int - 1" 8 (H.pop h)

(* Each add is counted once, by the tier it lands in directly. *)
let tier_counts () =
  let h = H.create ~dummy:0 in
  List.iter
    (fun t -> H.add h ~time:t 0)
    [ 0; w - 1; w; span; span + w; 10 * span ];
  Alcotest.(check (triple int int int))
    "near, coarse, overflow" (2, 2, 2) (H.tier_adds h);
  H.clear h;
  Alcotest.(check (triple int int int)) "cleared" (0, 0, 0) (H.tier_adds h)

let prop_clear_reuse =
  QCheck.Test.make ~name:"clear then reuse drains correctly" ~count:200
    QCheck.(pair (list_of_size (Gen.int_bound 150) (int_bound 30))
              (list_of_size (Gen.int_bound 150) (int_bound 30)))
    (fun (batch1, batch2) ->
      let h = H.create ~dummy:(-1) in
      List.iteri (fun i t -> H.add h ~time:t i) batch1;
      H.clear h;
      let base = List.length batch1 in
      List.iteri (fun i t -> H.add h ~time:t (base + i)) batch2;
      let out = ref [] in
      while not (H.is_empty h) do
        out := H.pop h :: !out
      done;
      let expected =
        List.map snd
          (List.stable_sort
             (fun (t1, _) (t2, _) -> compare t1 t2)
             (List.mapi (fun i t -> (t, base + i)) batch2))
      in
      List.rev !out = expected)

(* --- payload retention -------------------------------------------------- *)

(* Popped and cleared slots are overwritten with [dummy]; otherwise the
   backing array would pin every thread continuation a run ever
   scheduled. Observed through weak pointers: once the only strong
   reference is (potentially) the heap's array, a major GC must reclaim
   the payloads while the heap itself stays live. *)
let payloads_unreachable ~via ~far () =
  let h = H.create ~dummy:[||] in
  let weak = Weak.create 8 in
  (* Far events sit beyond the window, alternately in the coarse tier
     and the overflow heap; the pops cascade and migrate them. *)
  let time i =
    if not far then i else (i + 1) * if i land 1 = 0 then w else span
  in
  for i = 0 to 7 do
    let p = Array.make 4 i in
    Weak.set weak i (Some p);
    H.add h ~time:(time i) p
  done;
  (match via with
  | `Pop ->
      while not (H.is_empty h) do
        ignore (H.pop h)
      done
  | `Clear -> H.clear h);
  Gc.full_major ();
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d reclaimed" i)
      false
      (Weak.check weak i)
  done;
  (* The queue must still be usable — its arrays were retained. *)
  H.add h ~time:(time 7 + 1) [| 42 |];
  Alcotest.(check int) "queue still works" 42 (H.pop h).(0)

(* A run that ends with events pending (here: cut at the horizon while
   a fiber sleeps past it) hands its queue back to the engine for the
   next run. The released queue must not keep the pending events'
   closures, nor the fiber stacks they hold, reachable. *)
let released_queue_holds_nothing () =
  let weak = Weak.create 2 in
  let r =
    E.run ~topology:Topology.small ~n_threads:2 ~horizon:1_000
      (fun ~tid ~cluster:_ ->
        let marker = Array.make 4 tid in
        Weak.set weak tid (Some marker);
        (* tid 0 sleeps in the window, tid 1 in the overflow heap *)
        M.pause (if tid = 0 then 2_000 else 100 * w);
        ignore (Sys.opaque_identity marker))
  in
  Alcotest.(check int) "horizon cut both" 0 r.E.threads_finished;
  Gc.full_major ();
  for tid = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "fiber %d's stack reclaimed" tid)
      false (Weak.check weak tid)
  done

(* --- heap mode vs explore mode ------------------------------------------ *)

(* The explorer's index-0 policy must replay the default (heap) schedule
   exactly: same event order, same timings, same observed values. Random
   programs of reads/writes/CAS/pauses over shared cells, logging
   (tid, now, observation) at every step. *)
let random_program ?(max_pause = 50) rng ~steps () =
  let log = ref [] in
  let cells = Array.init 4 (fun _ -> M.cell' 0) in
  let body ~tid ~cluster:_ =
    let r = Prng.create (Prng.int rng 1_000_000 + tid) in
    for _ = 1 to steps do
      let c = cells.(Prng.int r (Array.length cells)) in
      let obs =
        match Prng.int r 4 with
        | 0 -> M.read c
        | 1 ->
            M.write c tid;
            -1
        | 2 -> if M.cas c ~expect:(M.read c) ~desire:tid then -2 else -3
        | _ ->
            M.pause (Prng.int r max_pause);
            -4
      in
      log := (tid, M.now (), obs) :: !log
    done
  in
  (body, log)

(* --- the recycled queue ------------------------------------------------- *)

(* Each domain's engine keeps its emptied queue for the next run. A run
   after runs that ended early — cut at the horizon, deadlocked, or
   aborted by a failing thread, each with events or waiters pending —
   must be result-identical to the same run on a fresh queue. A new
   domain has no spare queue, so the reference runs there, as in a
   fresh process. The program pauses up to 3w ns, so both tiers and the
   migration between them take part. *)
let recycled_queue_invisible () =
  let program () =
    let body, log =
      random_program (Prng.create 99) ~steps:40 ~max_pause:(3 * w) ()
    in
    let r = E.run ~topology:Topology.small ~n_threads:6 body in
    (r, List.rev !log)
  in
  let reference = Domain.join (Domain.spawn program) in
  let early_exits =
    [
      ( "horizon",
        fun () ->
          let body, _ =
            random_program (Prng.create 5) ~steps:40 ~max_pause:(3 * w) ()
          in
          ignore
            (E.run ~topology:Topology.small ~n_threads:6 ~horizon:5_000 body)
      );
      ( "deadlock",
        fun () ->
          let c = M.cell' 0 in
          match
            E.run ~topology:Topology.small ~n_threads:3 (fun ~tid ~cluster:_ ->
                if tid = 0 then ignore (M.wait_until c (fun v -> v = 1))
                else M.pause (tid * 10 * w))
          with
          | _ -> Alcotest.fail "expected Deadlock"
          | exception E.Deadlock _ -> () );
      ( "thread failure",
        fun () ->
          match
            E.run ~topology:Topology.small ~n_threads:4 (fun ~tid ~cluster:_ ->
                M.pause (if tid = 0 then 100 else 5 * w);
                if tid = 0 then failwith "boom")
          with
          | _ -> Alcotest.fail "expected Thread_failure"
          | exception E.Thread_failure _ -> () );
    ]
  in
  List.iter
    (fun (name, early) ->
      early ();
      let r, log = program () in
      Alcotest.(check bool)
        (Printf.sprintf "after a %s run: result and log as on a fresh queue"
           name)
        true
        ((r, log) = reference))
    early_exits

let diff_heap_vs_explore () =
  let rng = Prng.create 2026 in
  for case = 1 to 10 do
    let seed = Prng.int rng 1_000_000 in
    let run policy =
      let body, log = random_program (Prng.create seed) ~steps:25 () in
      let r = E.run ~topology:Topology.small ~n_threads:4 ?policy body in
      ((r.E.end_time, r.E.events, r.E.threads_finished), List.rev !log)
    in
    let heap_r, heap_log = run None in
    let ex_r, ex_log = run (Some (fun ~step:_ _ -> 0)) in
    Alcotest.(check (triple int int int))
      (Printf.sprintf "case %d: result fields identical" case)
      heap_r ex_r;
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "case %d: event log identical" case)
      heap_log ex_log
  done

let () =
  Alcotest.run "event_heap"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_drain_order; prop_interleaved; prop_clear_reuse ] );
      ( "calendar",
        [
          QCheck_alcotest.to_alcotest prop_calendar_vs_far;
          Alcotest.test_case "window edges, ties, wrap, tiers" `Quick
            calendar_edges;
          Alcotest.test_case "adds counted per tier" `Quick tier_counts;
        ] );
      ( "retention",
        [
          Alcotest.test_case "pop blanks payload slots" `Quick
            (payloads_unreachable ~via:`Pop ~far:false);
          Alcotest.test_case "clear blanks payload slots" `Quick
            (payloads_unreachable ~via:`Clear ~far:false);
          Alcotest.test_case "pop blanks far-tier payload slots" `Quick
            (payloads_unreachable ~via:`Pop ~far:true);
          Alcotest.test_case "clear blanks far-tier payload slots" `Quick
            (payloads_unreachable ~via:`Clear ~far:true);
          Alcotest.test_case "a released queue holds no payloads" `Quick
            released_queue_holds_nothing;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "a recycled queue is invisible to the next run"
            `Quick recycled_queue_invisible;
        ] );
      ( "differential",
        [
          Alcotest.test_case "heap mode = explore mode under index-0 policy"
            `Quick diff_heap_vs_explore;
        ] );
    ]
