(* Per-layer metrics. They come from one traced rep, whose spans wrap the
   benchmark's own calls into each layer (workload -> experiment call ->
   point -> Sim_runtime.run) and whose locks report to a counting sink,
   plus one A/B rep per switch the workload honours: fast path off,
   rollup on, profile on, oracle-wrapped. Every one of these reps is
   checked against the warm-up digests like a timed rep. A metric a
   workload's path never reaches reads 0. *)

module Wl = Workloads
module P = Numa_trace.Profile
module Mt = Numa_trace.Metrics

type metric = { name : string; value : float; unit : string }

let m name unit value =
  { name; value = (if Float.is_finite value then value else 0.); unit }

let points = function Wl.Points ps -> ps | _ -> []
let finite = List.filter Float.is_finite
let median_of f xs = Summary.median (finite (List.map f xs))
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fdiv a b = if b = 0. then 0. else a /. b

(* The simulated results users read off the figures and tables. They are
   deterministic per seed, so every rep of a run gives the same values. *)
let figures ~wall (rep : Wl.rep) =
  let ps = points rep.payload in
  let speedups =
    match rep.payload with Wl.Cells cs -> List.map snd cs | _ -> []
  in
  let searched =
    match rep.payload with
    | Wl.Explored t -> float_of_int (t.schedules + t.fuzz_runs)
    | _ -> 0.
  in
  [
    m "sim_tput_geomean" "acq/sim_s"
      (Summary.geomean (List.map (fun (r : Harness.Lbench.result) -> r.throughput) ps));
    m "sim_acquire_p99_ns" "sim_ns"
      (median_of (fun (r : Harness.Lbench.result) -> r.acquire_p99) ps);
    m "sim_fairness_pct" "%"
      (median_of (fun (r : Harness.Lbench.result) -> r.fairness_stddev_pct) ps);
    m "sim_kv_speedup_geomean" "x" (Summary.geomean speedups);
    m "schedules_per_host_s" "1/s" (fdiv searched wall);
  ]

(* The LBench and collapse line-ups: one [lock.<LOCK>.sim_tput] each. *)
let lineup =
  List.fold_left
    (fun acc (e : Harness.Lock_registry.entry) ->
      if List.mem e.name acc then acc else acc @ [ e.name ])
    []
    (Harness.Lock_registry.microbench_locks @ Harness.Lock_registry.collapse_locks)

type counts = {
  mutable events : int;
  mutable acquire_events : int;
  mutable parks : int;
}

let counting_sink c =
  Numa_trace.Sink.make (fun ev ->
      c.events <- c.events + 1;
      match ev.Numa_trace.Event.kind with
      | Acquire_local | Acquire_global -> c.acquire_events <- c.acquire_events + 1
      | Gcr_park -> c.parks <- c.parks + 1
      | _ -> ())

(* Wall seconds of a variant rep and of the plain rep run just before
   it. *)
type pair = { base : float; variant : float }

let overhead_pct = function
  | Some { base; variant } -> 100. *. fdiv (variant -. base) base
  | None -> 0.

(* Ratios per acquisition divide by the counting sink's acquire events,
   so they are 0 where no sink is attached (explore-p2). *)
let engine ~spans ~(rep : Wl.rep) ~acquires ~root ~fastpath_off =
  let runs = List.filter (fun (s : Spans.span) -> s.name = "Sim_runtime.run") spans in
  let run_s = fsum Spans.duration runs in
  let events = float_of_int rep.engine_events in
  [
    m "engine.runs" "count" (float_of_int (List.length runs));
    m "engine.events_per_acq" "events/acq" (fdiv events acquires);
    m "engine.host_ns_per_event" "ns" (fdiv (run_s *. 1e9) events);
    m "engine.share" "frac" (fdiv run_s (Spans.duration root));
    m "engine.fastpath_saving_pct" "%"
      (100. *. fdiv (fastpath_off.variant -. fastpath_off.base) fastpath_off.variant);
  ]

let coherence ps =
  let ps =
    List.filter_map
      (fun (r : Harness.Lbench.result) ->
        Option.map (fun p -> (r.iterations, p)) r.profile)
      ps
  in
  let acq = float_of_int (isum fst ps) in
  let tot f = float_of_int (isum (fun (_, p) -> f p.P.totals) ps) in
  let icx f = float_of_int (isum (fun (_, p) -> f p.P.icx) ps) in
  let per_acq x = fdiv x acq in
  [
    m "coherence.accesses_per_acq" "accesses/acq" (per_acq (tot (fun c -> c.accesses)));
    m "coherence.hit_frac" "frac"
      (fdiv (tot (fun c -> c.l1_hits + c.local_hits)) (tot (fun c -> c.accesses)));
    m "coherence.misses_per_cs" "misses/cs" (per_acq (tot (fun c -> c.coherence_misses)));
    m "coherence.invalidations_per_acq" "inv/acq" (per_acq (tot (fun c -> c.invalidations)));
    m "coherence.memory_misses_per_acq" "misses/acq"
      (per_acq (tot (fun c -> c.memory_misses)));
    m "coherence.waiter_scans_per_acq" "scans/acq" (per_acq (tot (fun c -> c.waiter_scans)));
    m "icx.txns_per_acq" "txns/acq" (per_acq (icx (fun i -> i.txns)));
    m "icx.queue_ns_per_txn" "sim_ns" (fdiv (icx (fun i -> i.queue_ns)) (icx (fun i -> i.txns)));
    m "icx.busy_ns_per_acq" "sim_ns" (per_acq (icx (fun i -> i.busy_ns)));
    m "icx.peak_queue" "count"
      (float_of_int (List.fold_left (fun acc (_, p) -> max acc p.P.icx.peak_queue) 0 ps));
  ]

let lock ~counts ~(rep : Wl.rep) ~rolled =
  let acquires = float_of_int counts.acquire_events in
  let rs =
    List.filter_map (fun (r : Harness.Lbench.result) -> r.rollup) rolled
  in
  let acq = float_of_int (isum (fun (r : Mt.t) -> r.acquires) rs) in
  let within = float_of_int (isum (fun (r : Mt.t) -> r.handoffs_within_cohort) rs) in
  let global = float_of_int (isum (fun (r : Mt.t) -> r.handoffs_global) rs) in
  let ps = points rep.payload in
  let top = List.fold_left (fun acc (r : Harness.Lbench.result) -> max acc r.n_threads) 0 ps in
  [
    m "lock.acquires" "count" acquires;
    m "lock.local_handoff_frac" "frac" (fdiv within (within +. global));
    m "lock.batch_p50" "acq" (median_of (fun (r : Mt.t) -> r.batch_p50) rs);
    m "lock.migrations_per_acq" "migrations/acq"
      (fdiv (float_of_int (isum (fun (r : Mt.t) -> r.migrations) rs)) acq);
    m "lock.hold_p50_ns" "sim_ns" (median_of (fun (r : Mt.t) -> r.hold_p50) rs);
    m "lock.wait_p50_ns" "sim_ns" (median_of (fun (r : Mt.t) -> r.wait_p50) rs);
    m "lock.wait_p99_ns" "sim_ns" (median_of (fun (r : Mt.t) -> r.wait_p99) rs);
    m "lock.starvation_hits_per_kacq" "hits/kacq"
      (1000. *. fdiv (float_of_int (isum (fun (r : Mt.t) -> r.starvation_limit_hits) rs)) acq);
    m "lock.gcr_parks_per_acq" "parks/acq"
      (fdiv (float_of_int counts.parks) acquires);
  ]
  @ List.map
      (fun name ->
        m
          (Printf.sprintf "lock.%s.sim_tput" name)
          "acq/sim_s"
          (match
             List.find_opt
               (fun (r : Harness.Lbench.result) ->
                 r.lock_name = name && r.n_threads = top)
               ps
           with
          | Some r -> r.throughput
          | None -> 0.))
      lineup

(* Points are the spans below the experiment calls; where a call cannot
   be split (Table 1), the calls themselves. *)
let harness ~spans ~root =
  let calls = Spans.at_depth spans 1 in
  let pts = match Spans.at_depth spans 2 with [] -> calls | ps -> ps in
  let slowest =
    List.fold_left
      (fun acc (s : Spans.span) ->
        match acc with
        | Some (b : Spans.span) when Spans.duration b >= Spans.duration s -> acc
        | _ -> Some s)
      None pts
  in
  let slowest_s = match slowest with Some s -> Spans.duration s | None -> 0. in
  ( [
      m "harness.points" "count" (float_of_int (List.length pts));
      m "harness.self_s" "s"
        (fsum (Spans.self_time spans) (List.sort_uniq compare (calls @ pts)));
      m "harness.point_ms_p50" "ms" (1e3 *. Summary.median (List.map Spans.duration pts));
      m "harness.point_ms_max" "ms" (1e3 *. slowest_s);
      m "harness.slowest_point_share" "frac" (fdiv slowest_s (Spans.duration root));
    ],
    Option.map (fun (s : Spans.span) -> s.name) slowest )

let timed f =
  Gc.compact ();
  let t0 = Spans.now () in
  let x = f () in
  (x, Spans.now () -. t0)

(* The traced run. [check] holds a rep to the warm-up digests; [wall] is
   the untraced median. Every variant rep, the traced one included, runs
   right after a plain rep and is costed against it, which keeps host
   drift out of the comparison. Returns the metrics, the slowest point's
   name and whether the root span matched the traced rep's wall time
   within 1%. *)
let traced ~(w : Wl.t) ~rep_fn ~check ~wall ~(warm : Wl.rep) ~trace_file =
  let paired label run =
    let base, base_wall = timed (fun () -> rep_fn Wl.plain) in
    check ~label:(label ^ " base") base;
    let (r : Wl.rep), t = timed run in
    check ~label r;
    ((r, t), { base = base_wall; variant = t })
  in
  let counts = { events = 0; acquire_events = 0; parks = 0 } in
  let spans = ref [] in
  let (rep, traced_wall), tracing =
    paired "traced" (fun () ->
        let r, s =
          Spans.record (fun () ->
              Spans.with_span w.name (fun () ->
                  rep_fn { Wl.plain with traced = true; sink = counting_sink counts }))
        in
        spans := s;
        r)
  in
  let spans = !spans in
  let root = List.find (fun (s : Spans.span) -> s.parent < 0) spans in
  let root_ok = Float.abs (Spans.duration root -. traced_wall) <= 0.01 *. traced_wall in
  Option.iter (fun f -> Spans.write_file f spans) trace_file;
  let _, fastpath_off =
    paired "fastpath-off" (fun () ->
        Fun.protect
          ~finally:(fun () -> Numasim.Engine.set_fastpath true)
          (fun () ->
            Numasim.Engine.set_fastpath false;
            rep_fn Wl.plain))
  in
  let knob k label v =
    if List.mem k w.knobs then Some (paired label (fun () -> rep_fn v)) else None
  in
  let rollup = knob Wl.Rollup "rollup" { Wl.plain with rollup = true } in
  let profile = knob Wl.Profile "profile" { Wl.plain with profile = true } in
  let oracle = knob Wl.Oracle "oracle" { Wl.plain with oracle = true } in
  let cost = Option.map snd in
  let rolled =
    points (match rollup with Some ((r, _), _) -> r.payload | None -> rep.payload)
  in
  let explored =
    match warm.payload with
    | Wl.Explored t -> t
    | _ -> { schedules = 0; pruned = 0; fuzz_runs = 0; mutants_caught = 0 }
  in
  let searched = float_of_int (explored.schedules + explored.fuzz_runs) in
  let cells = match warm.payload with Wl.Cells cs -> cs | _ -> [] in
  let speedup tag =
    Summary.geomean (List.filter_map (fun (t, s) -> if t = tag then Some s else None) cells)
  in
  let harness, slowest = harness ~spans ~root in
  let metrics =
    engine ~spans ~rep ~acquires:(float_of_int counts.acquire_events) ~root ~fastpath_off
    @ coherence (points rep.payload)
    @ lock ~counts ~rep ~rolled
    @ figures ~wall warm
    @ harness
    @ [
        m "trace.lock_events_per_acq" "events/acq"
          (fdiv (float_of_int counts.events) (float_of_int counts.acquire_events));
        m "trace.rollup_overhead_pct" "%" (overhead_pct (cost rollup));
        m "trace.profile_overhead_pct" "%" (overhead_pct (cost profile));
        m "trace.pred_err_median_pct" "%"
          (median_of
             (fun (r : Harness.Lbench.result) ->
               match r.predicted with
               | Some p -> 100. *. Float.abs p.Numa_trace.Predict.err
               | None -> Float.nan)
             rolled);
        m "explore.schedules" "count" (float_of_int explored.schedules);
        m "explore.pruned_frac" "frac"
          (fdiv (float_of_int explored.pruned)
             (float_of_int (explored.schedules + explored.pruned)));
        m "explore.host_us_per_schedule" "us" (fdiv (wall *. 1e6) searched);
        m "explore.fuzz_runs" "count" (float_of_int explored.fuzz_runs);
        m "explore.mutants_caught" "count" (float_of_int explored.mutants_caught);
        m "check.oracle_overhead_pct" "%" (overhead_pct (cost oracle));
        m "kv.read_heavy_speedup_geomean" "x" (speedup "read-heavy");
        m "kv.write_heavy_speedup_geomean" "x" (speedup "write-heavy");
        (* Host ms per Table 1 cell, from the table1 call spans. *)
        m "kv.point_ms_p50" "ms"
          (match (cells, Spans.at_depth spans 1) with
          | [], _ | _, [] -> 0.
          | cs, calls ->
              let per_call = float_of_int (List.length cs / List.length calls) in
              1e3 *. Summary.median (List.map Spans.duration calls) /. per_call);
        m "bench.tracing_overhead_pct" "%" (overhead_pct (Some tracing));
      ]
  in
  (metrics, slowest, root_ok)
