(* Abortable (timeout-capable) NUMA-aware locking — the paper's section
   3.6, and the first NUMA-aware abortable queue locks.

     dune exec examples/abortable_timeouts.exe

   Scenario: request handlers with a latency budget. Each handler tries
   to take a shared lock with the remaining budget as its patience; on
   timeout it degrades gracefully (serves stale data) instead of
   stalling. We compare the abort behaviour of A-CLH (NUMA-oblivious)
   and A-C-BO-CLH (cohort) under load. *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf

let topology = Numa_base.Topology.t5440
let duration = 3_000_000
let n_threads = 96
let budget = 30_000 (* ns each request may spend waiting for the lock *)

let run_candidate name (module L : LI.ABORTABLE_LOCK) =
  let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
  let lock = L.create cfg in
  let fresh = ref 0 in
  let stale = ref 0 in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
         let th = L.register lock ~tid ~cluster in
         let rng = Numa_base.Prng.create (tid * 3 + 1) in
         let rec loop () =
           if M.now () < duration then begin
             (* A request arrives; we have [budget] ns to get the lock. *)
             if L.try_acquire th ~patience:budget then begin
               M.pause 400 (* update shared state *);
               incr fresh;
               L.release th
             end
             else
               (* Degrade: serve cached data, no lock required. *)
               incr stale;
             M.pause (2_000 + Numa_base.Prng.int rng 2_000);
             loop ()
           end
         in
         loop ()));
  let total = !fresh + !stale in
  Printf.printf
    "%-12s  %8d requests   %6.2f%% served stale   %10s fresh/s\n" name total
    (100. *. float_of_int !stale /. float_of_int total)
    (Harness.Report.fmt_si
       (float_of_int !fresh /. (float_of_int duration *. 1e-9)))

let () =
  Printf.printf
    "Latency-budgeted handlers (%d ns lock budget), %d threads:\n\n" budget
    n_threads;
  let module Aclh = Cohort.Aclh_lock.Make (M) in
  let module Table = Cohort.Cohort_locks.Make (M) in
  let module A_hbo = Baselines.Hbo_lock.Make (M) in
  run_candidate "A-CLH" (module Aclh.Abortable);
  run_candidate "A-HBO" (module A_hbo.Abortable);
  run_candidate "A-C-BO-CLH" Table.a_c_bo_clh;
  Printf.printf
    "\nThe cohort lock completes the most lock-protected work per second \
     and handles\nthe most requests overall; its extra stale responses are \
     the fairness price of\nbatching — remote clusters wait longer while a \
     cohort holds the lock.\n"
