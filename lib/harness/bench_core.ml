open Numa_base
module LI = Cohort.Lock_intf

type result = {
  lock_name : string;
  n_threads : int;
  duration_ns : int;
  iterations : int;
  throughput : float;
  per_thread : int array;
  fairness_stddev_pct : float;
  migrations : int;
  misses_per_cs : float;
  aborts : int;
  abort_rate : float;
  acquire_p50 : float;
  acquire_p99 : float;
  acquire_max : float;
  rollup : Numa_trace.Metrics.t option;
  profile : Numa_trace.Profile.t option;
  predicted : Numa_trace.Predict.t option;
  event_classes : Runtime_intf.event_class list;
  queue_tiers : Runtime_intf.queue_tiers option;
}

type cs = Counters | Pause of int

type hooks = { before_acquire : unit -> unit; granted : waited:int -> unit }

type workload = {
  salt : int;
  cs : cs;
  idle_min : int;
  idle_spread : int;
  thread : tid:int -> Prng.t -> hooks;
}

let lbench =
  {
    salt = 13;
    cs = Counters;
    idle_min = 0;
    idle_spread = 4_000 (* idle spin of up to 4 us *);
    thread =
      (fun ~tid:_ _ ->
        { before_acquire = ignore; granted = (fun ~waited:_ -> ()) });
  }

(* Mean of LBench's uniform non-critical delay: the analytic model's
   per-iteration idle term. *)
let lbench_idle_mean_ns =
  float_of_int lbench.idle_min +. (float_of_int lbench.idle_spread /. 2.)

module Make (M : Memory_intf.MEMORY) (RT : Runtime_intf.RUNTIME) = struct
  (* The shared critical-section data: four counters on each of two cache
     lines (paper, Figure 2 caption). *)
  type cs_data = { line_a : int M.cell array; line_b : int M.cell array }

  let make_cs_data () =
    let mk name =
      let ln = M.line ~name () in
      Array.init 4 (fun _ -> M.cell ln 0)
    in
    { line_a = mk "lbench.a"; line_b = mk "lbench.b" }

  (* At functor level, so a critical section allocates no closure. *)
  let bump c = M.write c (M.read c + 1)

  let run_cs data =
    Array.iter bump data.line_a;
    Array.iter bump data.line_b

  let summarise ~lock_name ~n_threads ~duration ~counts ~migrations ~aborts
      ~latencies ~(stats : Runtime_intf.run_stats) =
    let iterations = Array.fold_left ( + ) 0 counts in
    let attempts = iterations + aborts in
    let pct q = float_of_int (Stats.Histogram.quantile latencies q) in
    {
      lock_name;
      n_threads;
      duration_ns = duration;
      iterations;
      throughput = float_of_int iterations /. (float_of_int duration *. 1e-9);
      per_thread = counts;
      fairness_stddev_pct = Stats.stddev_pct (Array.map float_of_int counts);
      migrations;
      misses_per_cs =
        (match stats.Runtime_intf.profile with
        | None -> Float.nan
        | Some p ->
            if iterations = 0 then 0.
            else
              float_of_int p.Numa_trace.Profile.totals.coherence_misses
              /. float_of_int iterations);
      aborts;
      abort_rate =
        (if attempts = 0 then 0.
         else float_of_int aborts /. float_of_int attempts);
      acquire_p50 = pct 0.5;
      acquire_p99 = pct 0.99;
      acquire_max = float_of_int (Stats.Histogram.max_seen latencies);
      rollup = None;
      predicted = None;
      event_classes = Option.value stats.Runtime_intf.event_classes ~default:[];
      queue_tiers = stats.Runtime_intf.queue_tiers;
      profile = stats.Runtime_intf.profile;
    }

  (* Analytic throughput prediction (doc/SIMULATOR.md "Model
     validation"): pure arithmetic over the rollup + engine-global
     interconnect stats, computed after the run — never per-site rows,
     so the value is identical with and without [--profile] and with the
     engine fast path on or off. *)
  let attach_prediction ~topology res =
    match (res.rollup, res.profile) with
    | Some m, Some p when res.iterations > 0 ->
        let icx = p.Numa_trace.Profile.icx in
        let icx_queue_mean_ns =
          if icx.Numa_trace.Profile.txns = 0 then 0.
          else
            float_of_int icx.Numa_trace.Profile.queue_ns
            /. float_of_int icx.Numa_trace.Profile.txns
        in
        let pred =
          Numa_trace.Predict.predict
            ~calib:(Topology.predict_calib topology)
            ~noncrit_ns:lbench_idle_mean_ns ~n_threads:res.n_threads
            ~hold_mean_ns:m.Numa_trace.Metrics.hold_mean
            ~batch_p50:m.Numa_trace.Metrics.batch_p50 ~icx_queue_mean_ns
            ~measured:res.throughput ()
        in
        { res with predicted = Some pred }
    | _ -> res

  (* Rollup capture: tee a bounded ring into the lock's configured trace
     sink for the duration of the run, then summarise the window. The
     ring keeps the most recent [rollup_capacity] events, so on long runs
     the rollup describes the steady-state tail, not the warm-up. *)
  let rollup_capacity = 65_536

  let with_rollup ~rollup cfg run =
    if not rollup then run cfg
    else begin
      let ring = Numa_trace.Ring.create ~capacity:rollup_capacity in
      let cfg =
        {
          cfg with
          LI.trace =
            Numa_trace.Sink.tee (Numa_trace.Ring.sink ring) cfg.LI.trace;
        }
      in
      let res = run cfg in
      let m =
        Numa_trace.Metrics.of_events ~wait_p50:res.acquire_p50
          ~wait_p99:res.acquire_p99
          (Numa_trace.Ring.events ring)
      in
      { res with rollup = Some m }
    end

  (* The one measurement loop behind every entry point. [lock cfg]
     creates the lock: its name and [register], which returns a thread's
     [acquire] (false = aborted) and [release]. The workload gives the
     critical section, the idle delay and the hooks around each acquire.
     A grant counts only if the window has not ended once [granted] has
     run (a pause the hook takes comes first); an uncounted grant still
     runs its critical section and release. Instrumentation state is
     either per-thread (counts, aborts, latency histograms, merged after
     the join) or mutated only inside the critical section (migrations),
     so it is race-free under native domains and does not perturb the
     simulation. *)
  let run_generic ~workload:w ?name ~rollup ~profile lock ~topology ~cfg
      ~n_threads ~duration ~seed =
    with_rollup ~rollup cfg @@ fun cfg ->
    let lock_name, register = lock cfg in
    let counts = Array.make n_threads 0 in
    let aborts = Array.make n_threads 0 in
    let migrations = Numa_trace.Metrics.Migrations.create () in
    (* A thread's histogram is made at its first counted grant: past
       capacity most threads never get one. *)
    let latencies = Array.make n_threads None in
    let data = make_cs_data () in
    let stats =
      RT.run ~topology ~n_threads ~stop_after:duration ~profile
        (fun ~stop ~tid ~cluster ->
          let rng = Prng.create (seed + (tid * 7919) + w.salt) in
          let acquire, release = register ~tid ~cluster in
          let hooks = w.thread ~tid rng in
          let rec loop () =
            if not (RT.stopped stop) then begin
              hooks.before_acquire ();
              let t0 = M.now () in
              if acquire () then begin
                let waited = M.now () - t0 in
                hooks.granted ~waited;
                if not (RT.stopped stop) then begin
                  (match latencies.(tid) with
                  | Some h -> Stats.Histogram.add h waited
                  | None ->
                      let h = Stats.Histogram.create () in
                      Stats.Histogram.add h waited;
                      latencies.(tid) <- Some h);
                  Numa_trace.Metrics.Migrations.note migrations ~cluster;
                  counts.(tid) <- counts.(tid) + 1
                end;
                (match w.cs with
                | Counters -> run_cs data
                | Pause ns -> M.pause ns);
                release ()
              end
              else aborts.(tid) <- aborts.(tid) + 1;
              M.pause (w.idle_min + Prng.int rng w.idle_spread);
              loop ()
            end
          in
          loop ())
    in
    let merged =
      Array.fold_left
        (fun acc -> Option.fold ~none:acc ~some:(Stats.Histogram.merge acc))
        (Stats.Histogram.create ()) latencies
    in
    summarise
      ~lock_name:(Option.value name ~default:lock_name)
      ~n_threads ~duration ~counts
      ~migrations:(Numa_trace.Metrics.Migrations.count migrations)
      ~aborts:(Array.fold_left ( + ) 0 aborts)
      ~latencies:merged ~stats

  (* A plain lock is the abortable case whose acquire always succeeds. *)
  let plain (module L : LI.LOCK) cfg =
    let l = L.create cfg in
    ( L.name,
      fun ~tid ~cluster ->
        let th = L.register l ~tid ~cluster in
        ( (fun () ->
            L.acquire th;
            true),
          fun () -> L.release th ) )

  let run ?name ?(rollup = false) ?(profile = false) lock ~topology ~cfg
      ~n_threads ~duration ~seed =
    attach_prediction ~topology
    @@ run_generic ~workload:lbench ?name ~rollup ~profile (plain lock)
         ~topology ~cfg ~n_threads ~duration ~seed

  let run_abortable ?name ?(rollup = false) ?(profile = false)
      (module L : LI.ABORTABLE_LOCK) ~topology ~cfg ~n_threads ~duration ~seed
      ~patience =
    let abortable cfg =
      let l = L.create cfg in
      ( L.name,
        fun ~tid ~cluster ->
          let th = L.register l ~tid ~cluster in
          ((fun () -> L.try_acquire th ~patience), fun () -> L.release th) )
    in
    attach_prediction ~topology
    @@ run_generic ~workload:lbench ?name ~rollup ~profile abortable ~topology
         ~cfg ~n_threads ~duration ~seed

  (* The analytic model is calibrated to LBench's loop, so another
     workload's point is rolled up but never predicted. *)
  let run_workload workload ?name lock =
    run_generic ~workload ?name ~rollup:true ~profile:false (plain lock)
end
