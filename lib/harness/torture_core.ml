open Numa_base
module LI = Cohort.Lock_intf

type tcase = {
  c_lock : string;
  c_threads : int;
  c_cs : int;
  c_ncs : int;
  c_policy : LI.handoff_policy;
  c_seed : int;
  c_clusters : int;
}

let policies =
  [| LI.Counted; LI.Timed 2_000; LI.Counted_or_timed 5_000; LI.Unbounded |]

let gen_case rng (locks : Lock_registry.entry list) =
  let n_locks = List.length locks in
  {
    c_lock = (List.nth locks (Prng.int rng n_locks)).Lock_registry.name;
    c_threads = 2 + Prng.int rng 15;
    c_cs = 1 + Prng.int rng 500;
    c_ncs = 1 + Prng.int rng 1_000;
    c_policy = policies.(Prng.int rng (Array.length policies));
    c_seed = Prng.int rng 1_000_000;
    c_clusters = 2 + Prng.int rng 3;
  }

let pp_policy = function
  | LI.Counted -> "counted"
  | LI.Timed n -> Printf.sprintf "timed:%d" n
  | LI.Counted_or_timed n -> Printf.sprintf "count|time:%d" n
  | LI.Unbounded -> "unbounded"

let pp_case c =
  Printf.sprintf
    "lock=%s threads=%d clusters=%d cs=%dns ncs=%dns policy=%s seed=%d"
    c.c_lock c.c_threads c.c_clusters c.c_cs c.c_ncs (pp_policy c.c_policy)
    c.c_seed

module Make (M : Memory_intf.MEMORY) (RT : Runtime_intf.RUNTIME) = struct
  module R = Lock_registry.Make (M)
  module CL = Numa_check.Oracle.Make (M)

  (* A [?topology] override (the --topology CLI flag) pins every case to
     one machine instead of the generated flat one; cases whose thread
     count exceeds its contexts then run oversubscribed, so [max_threads]
     must cover both. The default path is unchanged: generated machines
     always hold at least the 16 threads a case can ask for. *)
  let topology_of ?topology c =
    match topology with
    | Some t -> t
    | None ->
        Topology.make ~name:"torture" ~clusters:c.c_clusters
          ~threads_per_cluster:8 Latency.t5440

  let config_of ?topology ~tweak c =
    let topo = topology_of ?topology c in
    tweak
      {
        LI.default with
        LI.clusters = topo.Topology.clusters;
        max_threads = max (Topology.total_threads topo) c.c_threads;
        handoff_policy = c.c_policy;
      }

  (* Counters are host [Atomic]s: free in simulated time, and sound under
     native domains even when the lock under test is broken (which is
     precisely when they matter). *)
  let run_case ?(oracles = false) ?topology c =
    match R.find c.c_lock with
    | None -> Error (Printf.sprintf "unknown lock %S" c.c_lock)
    | Some e -> (
        (* The trace-stream oracles assume serialised emission, so they
           are enabled only on the deterministic (simulated) runtime. *)
        let checks =
          if oracles && RT.deterministic then
            Numa_check.Oracle.for_lock c.c_lock
          else Numa_check.Oracle.me_only
        in
        let module L =
          (val CL.wrap ~checks e.Lock_registry.lock : LI.LOCK)
        in
        let topology = topology_of ?topology c in
        let cfg = config_of ~topology ~tweak:e.Lock_registry.tweak c in
        let l = L.create cfg in
        let iters = 20 in
        let in_cs = Atomic.make 0 in
        let violations = Atomic.make 0 in
        let total = Atomic.make 0 in
        try
          ignore
            (RT.run ~topology ~n_threads:c.c_threads
               (fun ~stop:_ ~tid ~cluster ->
                 let rng = Prng.create (c.c_seed + tid) in
                 let th = L.register l ~tid ~cluster in
                 for _ = 1 to iters do
                   L.acquire th;
                   if Atomic.fetch_and_add in_cs 1 <> 0 then
                     Atomic.incr violations;
                   M.pause (1 + Prng.int rng c.c_cs);
                   if Atomic.get in_cs <> 1 then Atomic.incr violations;
                   Atomic.incr total;
                   Atomic.decr in_cs;
                   L.release th;
                   M.pause (1 + Prng.int rng c.c_ncs)
                 done));
          if Atomic.get violations > 0 then
            Error (Printf.sprintf "%d ME violations" (Atomic.get violations))
          else if Atomic.get total <> c.c_threads * iters then
            Error
              (Printf.sprintf "progress: %d of %d" (Atomic.get total)
                 (c.c_threads * iters))
          else Ok ()
        with
        | Runtime_intf.Thread_failure
            { exn = Numa_check.Violation.Violation v; _ } ->
            Error (Numa_check.Violation.to_string v))

  let run_abortable_case ?topology c =
    let locks = R.abortable_locks in
    let e = List.nth locks (c.c_seed mod List.length locks) in
    let module L =
      (val e.Lock_registry.a_lock : LI.ABORTABLE_LOCK)
    in
    let topology = topology_of ?topology c in
    let cfg = config_of ~topology ~tweak:e.Lock_registry.a_tweak c in
    let l = L.create cfg in
    let in_cs = Atomic.make 0 in
    let violations = Atomic.make 0 in
    let stuck = Atomic.make 0 in
    ignore
      (RT.run ~topology ~n_threads:c.c_threads (fun ~stop:_ ~tid ~cluster ->
           let rng = Prng.create (c.c_seed + tid) in
           let th = L.register l ~tid ~cluster in
           for _ = 1 to 20 do
             if L.try_acquire th ~patience:(50 + Prng.int rng 2_000) then begin
               if Atomic.fetch_and_add in_cs 1 <> 0 then
                 Atomic.incr violations;
               M.pause (1 + Prng.int rng c.c_cs);
               if Atomic.get in_cs <> 1 then Atomic.incr violations;
               Atomic.decr in_cs;
               L.release th
             end;
             M.pause (1 + Prng.int rng c.c_ncs)
           done;
           (* lock must still be healthy after the abort storm *)
           if L.try_acquire th ~patience:2_000_000_000 then L.release th
           else Atomic.incr stuck));
    if Atomic.get violations > 0 then
      Error
        (Printf.sprintf "%s: %d ME violations" e.Lock_registry.a_name
           (Atomic.get violations))
    else if Atomic.get stuck > 0 then
      Error
        (Printf.sprintf "%s: %d threads stranded" e.Lock_registry.a_name
           (Atomic.get stuck))
    else Ok ()

  (* One campaign: [rounds] x (a random plain-lock case + a random
     abortable case), reporting failures to [log]. Returns the failure
     count. *)
  let campaign ?(oracles = false) ?topology ~log ~rounds ~seed () =
    let rng = Prng.create seed in
    let failures = ref 0 in
    for round = 1 to rounds do
      let c = gen_case rng R.all_locks in
      (match run_case ~oracles ?topology c with
      | Ok () -> ()
      | Error msg ->
          incr failures;
          log (Printf.sprintf "FAIL (round %d): %s\n  %s" round msg (pp_case c)));
      let ca = gen_case rng R.all_locks in
      match run_abortable_case ?topology ca with
      | Ok () -> ()
      | Error msg ->
          incr failures;
          log
            (Printf.sprintf "FAIL abortable (round %d): %s\n  %s" round msg
               (pp_case ca))
    done;
    !failures
end
