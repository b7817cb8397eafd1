(* Uncontended cost and contended throughput of the NATIVE
   (Atomic-backed) locks on real domains, the contended part measured
   by the same substrate-generic benchmark core (and the same lock
   registry) as the simulated LBench.

     dune exec bin/native_bench.exe -- [-d DOMAINS] [-c CLUSTERS]
                                       [-t MILLIS] [-l LOCK]... [--abortable]
                                       [--trace FILE] [--emit-bench-json FILE]

   Each row reports the full LBench metric set (throughput, fairness
   stddev, acquire p50/p99, migrations from the declared clusters) plus,
   for non-abortable locks, the uncontended acquire+release latency
   measured by Bechamel on one thread before the contended run: the
   low-contention overhead that Figure 4 shows must stay competitive.
   Caveat for interpreting numbers: when domains outnumber cores, spin
   locks progress through pre-emption and Nat_mem's sleep escalation,
   so this measures lock overhead under oversubscription, not NUMA
   behaviour; use the simulator for the paper's experiments. Coherence
   misses per CS exist only in the simulator and are reported as "-"
   here. *)

open Bechamel
open Cmdliner
module LI = Cohort.Lock_intf
module LR = Harness.Lock_registry
module Registry = Harness.Native.Registry
module Bench = Harness.Native.Bench
module Rep = Harness.Report

let header () =
  Printf.printf "  %-14s %12s %9s %10s %10s %9s %8s %11s\n" "lock" "acquires/s"
    "fair.%" "p50 ns" "p99 ns" "migr." "abort%" "uncont. ns"

let row ?uncontended (r : Harness.Bench_core.result) =
  Printf.printf "  %-14s %12s %9s %10s %10s %9d %8s %11s\n%!" r.lock_name
    (Rep.fmt_si r.throughput)
    (Rep.fmt_fixed1 r.fairness_stddev_pct)
    (Rep.fmt_si r.acquire_p50) (Rep.fmt_si r.acquire_p99) r.migrations
    (if r.aborts = 0 && r.abort_rate = 0. then "-"
     else Rep.fmt_fixed2 (100. *. r.abort_rate))
    (Option.fold ~none:"-" ~some:Rep.fmt_fixed1 uncontended)

(* Single-thread acquire+release latency over real atomics, in ns per
   cycle: Bechamel's OLS estimate against the monotonic clock, if it has
   one. The lock is untraced, so the trace holds only the contended
   run. *)
let uncontended_ns (e : LR.entry) cfg =
  let (module L : LI.LOCK) = e.LR.lock in
  let l = L.create (e.LR.tweak cfg) in
  let th = L.register l ~tid:0 ~cluster:0 in
  let test =
    Test.make ~name:e.LR.name
      (Staged.stage (fun () ->
           L.acquire th;
           L.release th))
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let bcfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  Hashtbl.fold
    (fun _ ols est ->
      match Analyze.OLS.estimates ols with Some (ns :: _) -> Some ns | _ -> est)
    (Analyze.all ols instance (Benchmark.all bcfg [ instance ] test))
    None

let run_bench domains clusters millis filters abortable patience seed trace
    emit =
  let tpc = (domains + clusters - 1) / clusters in
  let topology =
    Numa_base.Topology.make ~name:"native" ~clusters
      ~threads_per_cluster:(max 1 tpc) Numa_base.Latency.t5440
  in
  let cfg = { LI.default with LI.clusters; max_threads = domains } in
  let duration = millis * 1_000_000 in
  (* Without -l: the registry line-up, plus the abortable one on
     --abortable. With -l: exactly the named locks. *)
  let wanted ~line_up name =
    if filters = [] then line_up else List.mem name filters
  in
  let entries =
    List.filter (fun e -> wanted ~line_up:true e.LR.name) Registry.all_locks
  in
  let aentries =
    List.filter
      (fun e -> wanted ~line_up:abortable e.LR.a_name)
      Registry.abortable_locks
  in
  Printf.printf
    "native contended LBench: %d domains over %d clusters (round-robin), %d \
     ms window, seed %d\n\
     (1-core container: measures oversubscribed overhead, not NUMA)\n"
    domains clusters millis seed;
  header ();
  let sink, finish_trace = Numa_trace.Chrome.open_trace trace in
  let rollup = emit <> None in
  let results =
    List.map
      (fun (e : LR.entry) ->
        let uncontended = uncontended_ns e cfg in
        let e = LR.with_trace sink e in
        let r =
          Bench.run ~name:e.LR.name e.LR.lock ~topology ~cfg:(e.LR.tweak cfg)
            ~n_threads:domains ~duration ~seed ~rollup
        in
        row ?uncontended r;
        ("native-lbench", r))
      entries
    @ List.map
        (fun (e : LR.abortable_entry) ->
          let e = LR.with_trace_abortable sink e in
          let r =
            Bench.run_abortable ~name:e.LR.a_name e.LR.a_lock ~topology
              ~cfg:(e.LR.a_tweak cfg) ~n_threads:domains ~duration ~seed
              ~patience ~rollup
          in
          row r;
          ("native-lbench-abortable", r))
        aentries
  in
  let note = finish_trace () in
  (match trace with
  | Some path -> Printf.printf "Wrote lock-event trace to %s\n%!" path
  | None -> ());
  Option.iter print_endline note;
  match emit with
  | None -> ()
  | Some path ->
      let entries =
        List.map
          (fun (experiment, r) ->
            Harness.Bench_json.entry_of_result ~experiment r)
          results
      in
      Harness.Bench_json.(write path (make ~substrate:"native" ~seed entries));
      Printf.printf "Wrote bench artifact to %s\n%!" path

let domains =
  let doc = "Number of domains (threads) to contend on the lock." in
  Arg.(
    value
    & opt (Cli.positive "domain count") 4
    & info [ "d"; "domains" ] ~docv:"N" ~doc)

let clusters =
  let doc =
    "Number of NUMA clusters declared in the topology; domains are placed \
     round-robin across them."
  in
  Arg.(
    value
    & opt (Cli.positive "cluster count") 2
    & info [ "c"; "clusters" ] ~docv:"N" ~doc)

let millis =
  let doc = "Measurement window in milliseconds (per lock)." in
  Arg.(
    value
    & opt (Cli.positive "window") 100
    & info [ "t"; "millis" ] ~docv:"MS" ~doc)

let locks =
  let doc =
    "Benchmark only this lock (repeatable, case-insensitive; abortable \
     names too); default: the whole registry line-up."
  in
  let names =
    List.map (fun e -> e.LR.name) Registry.all_locks
    @ List.map (fun e -> e.LR.a_name) Registry.abortable_locks
  in
  Arg.(value & opt_all (Cli.lock names) [] & info [ "l"; "lock" ] ~docv:"NAME" ~doc)

let abortable =
  let doc = "Also run the abortable line-up (with $(b,--patience))." in
  Arg.(value & flag & info [ "abortable" ] ~doc)

let patience =
  let doc = "Patience for abortable acquires, ns, at most 10^15." in
  Arg.(
    value
    & opt (Cli.patience ~ns:1) 1_000_000
    & info [ "patience" ] ~docv:"NS" ~doc)

let seed =
  let doc = "Seed for the non-critical-section delay PRNG." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let trace =
  let doc =
    "Write a lock-event trace to $(docv): JSON-lines if it ends in .jsonl, \
     Chrome trace_event format otherwise. Timestamps are real monotonic \
     ns, so the Chrome view shows wall-clock handoffs."
  in
  Cli.output [ "trace" ] ~doc

let emit =
  let doc =
    "Write a versioned benchmark artifact (cohort-bench JSON, with per-lock \
     trace-metric rollups) to $(docv). Native artifacts are timing-dependent \
     and not byte-reproducible; use $(b,repro quick) for the gated sim \
     artifact."
  in
  Cli.output [ "emit-bench-json" ] ~doc

let cmd =
  let doc =
    "native lock costs over the shared registry and benchmark core: \
     contended LBench metrics, plus the uncontended acquire+release latency"
  in
  Cmd.v
    (Cmd.info "native_bench" ~doc)
    Term.(
      const run_bench $ domains $ clusters $ millis $ locks $ abortable
      $ patience $ seed $ trace $ emit)

let () = exit (Cmd.eval cmd)
