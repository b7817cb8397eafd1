(* Host-performance meta-harness: how many simulated memory events does
   `Numasim.Engine` retire per host-second? (see doc/SIMULATOR.md,
   "Engine performance")

     dune exec bin/enginebench.exe               # full measurement
     dune exec bin/enginebench.exe -- --smoke    # short CI smoke
     dune exec bin/enginebench.exe -- --ab --emit HOSTPERF_XXXX.json

   Unlike every other artifact in this repo, the HOSTPERF JSON measures
   *host* wall-clock (via Bechamel's monotonic clock) and is therefore
   NOT deterministic: it is excluded from the CI same-seed byte-diff,
   which covers BENCH_*.json only. The simulated side of each workload
   IS deterministic — `events_per_run` is a pure function of the
   workload and is pinned in the artifact so a schedule drift shows up
   as a diff even here.

   Modes:
   - default           one measurement per workload, fast path per
                       --fastpath (on unless told otherwise).
   - --ab              interleaved A/B: each workload is measured in
                       alternating fastpath-on/off rounds (on, off, on,
                       off, ...), best-of per arm — the PR-4 measurement
                       protocol as one command, immune to slow host
                       drift between arms. Also cross-checks that both
                       arms retire the identical simulated event count
                       (a cheap determinism gate on the fast path).
   - --smoke           short quota; runs the A/B mode so CI exercises
                       BOTH paths on every pipeline run.

   Workloads:
   - uncontended-bo        1 thread, BO lock, long run: the heap-mode
                           fast path with no waiters and no contention.
   - contended-c-bo-mcs-32 32 threads on the t5440 topology hammering
                           C-BO-MCS: waiter wake-ups, invalidation
                           storms, deep event heap — the workload the
                           ISSUE's acceptance bound is measured on.
   - explore-steps         the same engine under the identity scheduling
                           policy (explore mode, candidate arrays built
                           every step): the explorer's per-schedule cost.
                           The fast path never applies here (policy in
                           force), so its A/B ratio hovers around 1.
*)

open Bechamel
module SM = Numasim.Sim_mem
module Engine = Numasim.Engine
module LI = Cohort.Lock_intf
module J = Numa_trace.Json
module Bo = Cohort.Bo_lock.Make (SM)
module Cbomcs = Cohort.Cohort_locks.C_bo_mcs (SM)

let schema_version = "cohort-hostperf/2"

(* One full simulation of [sections] lock/increment/unlock critical
   sections per thread; returns (events, fp_hits) — both deterministic
   for a fixed workload and fastpath setting. *)
let lock_run ~topology ~n_threads ~sections ?policy (module L : LI.LOCK) () =
  let cfg =
    {
      LI.default with
      LI.clusters = topology.Numa_base.Topology.clusters;
      max_threads = Numa_base.Topology.total_threads topology;
    }
  in
  let lock = L.create cfg in
  let line = SM.line ~name:"cs.data" () in
  let data = SM.cell line 0 in
  let body ~tid ~cluster =
    let th = L.register lock ~tid ~cluster in
    for _ = 1 to sections do
      L.acquire th;
      let v = SM.read data in
      SM.write data (v + 1);
      L.release th
    done
  in
  let r = Engine.run ~topology ~n_threads ?policy body in
  (r.Engine.events, r.Engine.fp_hits)

let identity_policy ~step:_ (_ : Engine.candidate array) = 0

type workload = { wl_name : string; wl_run : unit -> int * int }

let workloads =
  [
    {
      wl_name = "uncontended-bo";
      wl_run =
        lock_run ~topology:Numa_base.Topology.small ~n_threads:1
          ~sections:2_000
          (module Bo.Plain);
    };
    {
      wl_name = "contended-c-bo-mcs-32";
      wl_run =
        lock_run ~topology:Numa_base.Topology.t5440 ~n_threads:32 ~sections:40
          (module Cbomcs);
    };
    {
      wl_name = "explore-steps";
      wl_run =
        lock_run ~topology:Numa_base.Topology.t5440 ~n_threads:8 ~sections:40
          ~policy:identity_policy
          (module Cbomcs);
    };
  ]

type measurement = {
  m_name : string;
  m_fastpath : bool;
  m_events_per_run : int;
  m_fp_hits_per_run : int;
  m_ns_per_run : float;
  m_events_per_sec : float;
}

let with_fastpath b f =
  let saved = Engine.fastpath_enabled () in
  Engine.set_fastpath b;
  Fun.protect ~finally:(fun () -> Engine.set_fastpath saved) f

(* One Bechamel OLS estimate of ns/run under the given fastpath
   setting. The simulated event count is a pure function of the
   workload; one untimed run pins it (and the fast path's hit count). *)
let measure_once ~quota ~fastpath wl =
  with_fastpath fastpath @@ fun () ->
  let events_per_run, fp_hits = wl.wl_run () in
  let test =
    Test.make ~name:wl.wl_name (Staged.stage (fun () -> ignore (wl.wl_run ())))
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let results = Benchmark.all cfg [ instance ] test in
  let analyzed = Analyze.all ols instance results in
  let ns_per_run = ref Float.nan in
  Hashtbl.iter
    (fun _ ols ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> ns_per_run := e
      | _ -> ())
    analyzed;
  let events_per_sec =
    if Float.is_nan !ns_per_run || !ns_per_run <= 0. then Float.nan
    else float_of_int events_per_run /. (!ns_per_run /. 1e9)
  in
  {
    m_name = wl.wl_name;
    m_fastpath = fastpath;
    m_events_per_run = events_per_run;
    m_fp_hits_per_run = fp_hits;
    m_ns_per_run = !ns_per_run;
    m_events_per_sec = events_per_sec;
  }

let best a b = if b.m_ns_per_run < a.m_ns_per_run then b else a

let print_m m =
  Printf.printf
    "  %-24s %-3s %8d ev/run  %6.1f%% inline  %12.0f ns/run  %12.3e ev/s\n%!"
    m.m_name
    (if m.m_fastpath then "on" else "off")
    m.m_events_per_run
    (100. *. float_of_int m.m_fp_hits_per_run /. float_of_int m.m_events_per_run)
    m.m_ns_per_run m.m_events_per_sec

(* Interleaved A/B: rounds of (on, off) back to back, best-of per arm.
   Host throughput wobbles +-40% across seconds — interleaving keeps a
   drift from landing entirely on one arm (the measurement protocol
   mandated by CLAUDE.md for engine perf work). *)
let measure_ab ~quota ~rounds wl =
  let ev_on, _ = with_fastpath true wl.wl_run in
  let ev_off, _ = with_fastpath false wl.wl_run in
  if ev_on <> ev_off then begin
    Printf.eprintf
      "enginebench: FATAL — %s retires %d events with the fast path on but \
       %d with it off; the fast path changed the schedule\n%!"
      wl.wl_name ev_on ev_off;
    exit 1
  end;
  let on = ref None and off = ref None in
  for _ = 1 to rounds do
    let a = measure_once ~quota ~fastpath:true wl in
    let b = measure_once ~quota ~fastpath:false wl in
    on := Some (match !on with None -> a | Some x -> best x a);
    off := Some (match !off with None -> b | Some x -> best x b)
  done;
  (Option.get !on, Option.get !off)

let to_json ~note ms ratios =
  J.Obj
    [
      ("schema", J.String schema_version);
      ("note", match note with None -> J.Null | Some n -> J.String n);
      ( "entries",
        J.List
          (List.map
             (fun m ->
               J.Obj
                 [
                   ("name", J.String m.m_name);
                   ("fastpath", J.String (if m.m_fastpath then "on" else "off"));
                   ("events_per_run", J.Int m.m_events_per_run);
                   ("fp_hits_per_run", J.Int m.m_fp_hits_per_run);
                   ("ns_per_run", J.Float m.m_ns_per_run);
                   ("events_per_host_sec", J.Float m.m_events_per_sec);
                 ])
             ms) );
      ( "ab_speedup",
        J.Obj (List.map (fun (name, r) -> (name, J.Float r)) ratios) );
    ]

let run smoke ab fastpath quota rounds emit note =
  let quota = if smoke then 0.1 else quota in
  let rounds = if smoke then 2 else rounds in
  let ab = ab || smoke in
  let ms, ratios =
    if ab then begin
      print_endline
        "=== Engine host throughput: interleaved fastpath A/B (best-of per arm) ===";
      let pairs = List.map (fun wl -> measure_ab ~quota ~rounds wl) workloads in
      let ratios =
        List.map
          (fun (on, off) ->
            let r = off.m_ns_per_run /. on.m_ns_per_run in
            print_m on;
            print_m off;
            Printf.printf "  %-24s speedup %.2fx\n%!" on.m_name r;
            (on.m_name, r))
          pairs
      in
      (List.concat_map (fun (a, b) -> [ a; b ]) pairs, ratios)
    end
    else begin
      Printf.printf
        "=== Engine host throughput (simulated events / host second, fastpath %s) ===\n"
        (if fastpath then "on" else "off");
      let ms =
        List.map
          (fun wl ->
            let m = measure_once ~quota ~fastpath wl in
            print_m m;
            m)
          workloads
      in
      (ms, [])
    end
  in
  (match emit with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (J.to_string ~pretty:true (to_json ~note ms ratios));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n%!" file);
  0

open Cmdliner

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Short CI run (0.1 s quota, 2 rounds, non-gating on the numbers); \
           implies $(b,--ab) so both paths get exercised.")

let ab_arg =
  Arg.(
    value & flag
    & info [ "ab" ]
        ~doc:
          "Interleaved fastpath-on/off A/B measurement, best-of per arm; also \
           cross-checks that both arms retire identical simulated event \
           counts.")

let fastpath_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "fastpath" ] ~docv:"on|off"
        ~doc:"Engine fast path for non-A/B measurements (default on).")

let quota_arg =
  Arg.(
    value
    & opt (Cli.bounded ~strict:true ~zero:0. "quota" Arg.float) 0.5
    & info [ "quota" ] ~docv:"SECS" ~doc:"Bechamel time quota per measurement.")

let rounds_arg =
  Arg.(
    value
    & opt (Cli.positive "round count") 5
    & info [ "rounds" ] ~docv:"N" ~doc:"A/B rounds per workload (default 5).")

let emit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~docv:"FILE"
        ~doc:
          "Write a cohort-hostperf/2 JSON artifact (wall-clock; excluded from \
           the CI determinism byte-diff).")

let note_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "note" ] ~docv:"TEXT"
        ~doc:
          "Free-form note embedded in the artifact (e.g. the pre-PR baseline).")

let cmd =
  let doc = "measure simulator throughput in simulated events per host-second" in
  Cmd.v
    (Cmd.info "enginebench" ~doc)
    Term.(
      const run $ smoke_arg $ ab_arg $ fastpath_arg $ quota_arg $ rounds_arg
      $ emit_arg $ note_arg)

let () = exit (Cmd.eval' cmd)
