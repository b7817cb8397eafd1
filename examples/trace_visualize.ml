(* Seeing cohort batching: trace lock ownership over a contended run and
   draw which NUMA cluster held the lock over time.

     dune exec examples/trace_visualize.exe

   Each column is a slice of simulated time; the digit is the cluster
   that owned the lock. A NUMA-oblivious lock shows confetti; a cohort
   lock shows long same-digit runs — the batches that keep the critical
   section's cache lines on one socket. "Mean batch" is acquisitions per
   global-lock tenure, so a non-cohort lock reads exactly 1.0. *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module T = Numa_trace

let topology = Numa_base.Topology.t5440
let n_threads = 32
let duration = 200_000 (* a short window so individual batches are visible *)

let show name (module L : LI.LOCK) =
  let ring = T.Ring.create ~capacity:65_536 in
  let cfg =
    {
      LI.default with
      LI.clusters = 4;
      max_threads = 256;
      trace = T.Ring.sink ring;
    }
  in
  let l = L.create cfg in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         let rng = Numa_base.Prng.create (tid + 5) in
         let rec loop () =
           if M.now () < duration then begin
             L.acquire th;
             M.pause 150;
             L.release th;
             M.pause (Numa_base.Prng.int rng 2_000);
             loop ()
           end
         in
         loop ()));
  let evs = T.Ring.events ring in
  let m = T.Metrics.of_events evs in
  Printf.printf "%-10s |%s|\n" name (T.Metrics.render_timeline ~width:64 evs);
  Printf.printf "%10s  mean batch %.1f, %d migrations, %d acquisitions\n\n" ""
    m.T.Metrics.batch_mean m.T.Metrics.migrations m.T.Metrics.acquires

let () =
  Printf.printf
    "Lock ownership timeline (digit = cluster holding the lock):\n\n";
  let module Mcs = Cohort.Mcs_lock.Make (M) in
  let module Hbo = Baselines.Hbo_lock.Make (M) in
  let module Table = Cohort.Cohort_locks.Make (M) in
  show "MCS" (module Mcs.Plain);
  show "HBO" (module Hbo.Lock);
  show "C-BO-MCS" (Table.get ~global:"BO" ~local:"MCS")
