(* Engine fast-path differential (doc/SIMULATOR.md "Engine fast path"):
   the inline path must be observationally IDENTICAL to the effect path —
   value histories, timestamps, event counts, coherence stats, profiler
   attribution and trace streams all byte-equal with the fast path on vs
   forced off. Only [result.fp_hits] (and host speed) may differ, so every
   comparison here deliberately excludes it. Plus pins: explore mode and a
   disabled toggle always take the slow path. *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module C = Numasim.Coherence
module Topology = Numa_base.Topology
module LI = Cohort.Lock_intf
module R = Harness.Lock_registry

let with_fastpath b f =
  let saved = E.fastpath_enabled () in
  E.set_fastpath b;
  Fun.protect ~finally:(fun () -> E.set_fastpath saved) f

(* Everything observable about a run except [fp_hits]. *)
type outcome = {
  o_log : (int * int) list;  (** (tid, value) in per-thread program order *)
  o_end_time : int;
  o_events : int;
  o_finished : int;
  o_coh : Numa_trace.Profile.coherence;
  o_sites : Numa_trace.Profile.site list option;
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
    o_coh = C.export r.E.coherence;
    o_sites = r.E.sites;
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
      o_coh = C.export r.E.coherence;
      o_sites = r.E.sites;
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

let test_registry_locks_agree () =
  List.iter
    (fun (e : R.entry) ->
      let a = lbench_run ~fastpath:true e in
      let b = lbench_run ~fastpath:false e in
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical Lbench result" e.R.name)
        true
        (compare a b = 0))
    R.microbench_locks

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
    (Numa_trace.Ring.events ring, Numa_trace.Ring.pushed ring)
  in
  Alcotest.(check bool)
    "identical trace streams" true
    (compare (capture ~fastpath:true) (capture ~fastpath:false) = 0)

(* --- pins: when the fast path must NOT engage -------------------------- *)

let contended_run ?policy () =
  let module L = Cohort.Cohort_locks.C_bo_mcs (M) in
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

let test_explore_always_slow () =
  with_fastpath true @@ fun () ->
  let heap = contended_run () in
  Alcotest.(check bool) "heap mode inlines" true (heap.E.fp_hits > 0);
  let explore = contended_run ~policy:(fun ~step:_ _ -> 0) () in
  Alcotest.(check int) "explore mode never inlines" 0 explore.E.fp_hits;
  Alcotest.(check int)
    "identity policy replays the heap schedule" heap.E.events explore.E.events;
  Alcotest.(check int) "same end time" heap.E.end_time explore.E.end_time

let test_toggle_off_disables () =
  let r = with_fastpath false contended_run in
  Alcotest.(check int) "disabled toggle never inlines" 0 r.E.fp_hits

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
        ] );
      ( "pins",
        [
          Alcotest.test_case "explore always slow" `Quick
            test_explore_always_slow;
          Alcotest.test_case "toggle off" `Quick test_toggle_off_disables;
        ] );
    ]
