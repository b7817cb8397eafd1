(* The paper's malloc case study (Table 2): a single-lock allocator whose
   splay tree recycles recently-freed blocks. Under a cohort lock those
   blocks — and the allocator metadata — circulate within one NUMA
   cluster for long stretches.

     dune exec examples/allocator_scenario.exe *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module Alloc = Apps.Allocator.Make (M)

let topology = Numa_base.Topology.t5440
let duration = 3_000_000
let n_threads = 64

let run_candidate name (module L : LI.LOCK) =
  let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
  let lock = L.create cfg in
  let alloc = Alloc.create () in
  let pairs = ref 0 in
  let r =
    E.run ~topology ~n_threads (fun ~tid ~cluster ->
        let th = L.register lock ~tid ~cluster in
        let rng = Numa_base.Prng.create (tid + 99) in
        let rec loop () =
          if M.now () < duration then begin
            L.acquire th;
            let b = Alloc.malloc alloc ~size:64 in
            L.release th;
            Alloc.write_data b tid;
            M.pause (2_000 + Numa_base.Prng.int rng 500);
            L.acquire th;
            Alloc.free alloc b;
            L.release th;
            incr pairs;
            M.pause (2_000 + Numa_base.Prng.int rng 500);
            loop ()
          end
        in
        loop ())
  in
  let st = Alloc.stats alloc in
  Printf.printf
    "%-10s  %7.0f pairs/ms   %5.1f%% recycled   %9d coherence misses\n" name
    (float_of_int !pairs /. (float_of_int duration /. 1e6))
    (100. *. float_of_int st.Alloc.recycled /. float_of_int st.Alloc.allocs)
    r.E.profile.Numa_trace.Profile.totals.coherence_misses

let () =
  Printf.printf
    "mmicro allocator stress, %d threads, simulated 4-socket machine:\n\n"
    n_threads;
  let module Fibbo = Baselines.Fib_bo.Make (M) in
  let module Mcs = Cohort.Mcs_lock.Make (M) in
  let module Table = Cohort.Cohort_locks.Make (M) in
  run_candidate "Fib-BO" (module Fibbo);
  run_candidate "MCS" (module Mcs.Plain);
  run_candidate "C-TKT-MCS" (Table.get ~global:"TKT" ~local:"MCS");
  Printf.printf
    "\nSame allocator, same recycling rate — the cohort lock just recycles \
     blocks\nwithin a cluster, so the block headers and tree lines stay in \
     the local L2.\n"
