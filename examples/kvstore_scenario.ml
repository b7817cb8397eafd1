(* A memcached-like deployment decision: which lock should guard the
   cache? This runs the write-heavy key-value workload of the paper's
   Table 1 on the simulated 4-socket machine for three candidate locks
   and reports throughput and lock migrations.

     dune exec examples/kvstore_scenario.exe *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module Kv = Apps.Kvstore.Make (M)
module W = Apps.Kv_workload

let topology = Numa_base.Topology.t5440
let duration = 3_000_000 (* 3 simulated ms *)
let n_threads = 32

let run_candidate name (module L : LI.LOCK) =
  let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
  let lock = L.create cfg in
  let store = Kv.create ~n_buckets:1024 () in
  Kv.populate store ~n_keys:8_192;
  let ops = ref 0 in
  let migrations = ref 0 in
  let last_cluster = ref (-1) in
  let r =
    E.run ~topology ~n_threads (fun ~tid ~cluster ->
        let th = L.register lock ~tid ~cluster in
        let w =
          W.make ~seed:(1000 + tid) ~n_keys:8_192 ~mix:W.write_heavy
        in
        let rec loop () =
          if M.now () < duration then begin
            M.pause 2_500 (* parse request *);
            L.acquire th;
            if !last_cluster <> cluster then begin
              incr migrations;
              last_cluster := cluster
            end;
            (match W.next w with
            | W.Get k -> ignore (Kv.get store ~tid k)
            | W.Set (k, v) -> Kv.set store ~tid k v);
            incr ops;
            L.release th;
            loop ()
          end
        in
        loop ())
  in
  let tput = float_of_int !ops /. (float_of_int duration *. 1e-9) in
  Printf.printf "%-12s  %10s ops/s  %6.1f%% migrations  %8d coherence misses\n"
    name
    (Harness.Report.fmt_si tput)
    (100. *. float_of_int !migrations /. float_of_int !ops)
    r.E.profile.Numa_trace.Profile.totals.coherence_misses

let () =
  Printf.printf
    "Write-heavy KV workload, %d server threads on a simulated 4-socket \
     machine:\n\n"
    n_threads;
  let module Pthread = Baselines.Pthread_like.Make (M) in
  let module Mcs = Cohort.Mcs_lock.Make (M) in
  let module Table = Cohort.Cohort_locks.Make (M) in
  run_candidate "pthread" (module Pthread);
  run_candidate "MCS" (module Mcs.Plain);
  run_candidate "C-BO-MCS" (Table.get ~global:"BO" ~local:"MCS");
  Printf.printf
    "\nThe cohort lock keeps consecutive operations on one socket, so the \
     store's\nhot cache lines stop ping-ponging across the interconnect.\n"
