module LI = Cohort.Lock_intf
module SM = Numasim.Sim_mem
module Engine = Numasim.Engine
module Prng = Numa_base.Prng
module O = Oracle.Make (SM)

type scenario = {
  sc_name : string;
  sc_topology : Numa_base.Topology.t;
  sc_n_threads : int;
  sc_sections : int;
  sc_max_events : int;
  sc_prepare :
    unit ->
    (tid:int -> cluster:int -> unit) * (unit -> Violation.t option);
}

(* Strip a mutant marker ("TKT!lost-ticket" -> "TKT") so oracle selection
   sees the lock the mutant claims to be. *)
let base_name name =
  match String.index_opt name '!' with
  | Some i -> String.sub name 0 i
  | None -> name

let scenario ?checks ?(topology = Numa_base.Topology.small) ?(n_threads = 3)
    ?(sections = 3) ?(max_events = 100_000) ?cfg (module L : LI.LOCK) =
  let cfg =
    match cfg with
    | Some c -> c
    | None ->
        {
          LI.default with
          clusters = topology.Numa_base.Topology.clusters;
          max_threads = Numa_base.Topology.total_threads topology;
          max_local_handoffs = 2;
          (* A gate of 1 and a 2-grant rotation period force GCR wrappers
             through parking, rotation and the drain rescue even with the
             scenario's 3 threads; unused by every other lock. *)
          gcr_max_active = 1;
          gcr_rotate_every = 2;
        }
  in
  let checks =
    match checks with Some c -> c | None -> Oracle.for_lock (base_name L.name)
  in
  let prepare () =
    let module W = (val O.wrap ~checks (module L) : LI.LOCK) in
    let lock = W.create cfg in
    let line = SM.line ~name:"cs.data" () in
    let data = SM.cell line 0 in
    (* Host mirror of the last value stored: assignments happen in the
       writes' linearisation order, so after the run it equals the final
       cell value — readable outside the engine. *)
    let last_written = ref 0 in
    let body ~tid ~cluster =
      let th = W.register lock ~tid ~cluster in
      for _ = 1 to sections do
        W.acquire th;
        (* Non-atomic read-then-write: a mutual-exclusion break surfaces
           as a lost update even if the owner-word check misses it. *)
        let v = SM.read data in
        SM.write data (v + 1);
        last_written := v + 1;
        W.release th
      done
    in
    let expected = n_threads * sections in
    let final () =
      if !last_written <> expected then
        Some
          (Violation.make ~lock:L.name ~invariant:"lost-update" ~tid:(-1)
             ~at:0
             (Printf.sprintf
                "critical-section counter ended at %d, expected %d"
                !last_written expected))
      else None
    in
    (body, final)
  in
  {
    sc_name = L.name;
    sc_topology = topology;
    sc_n_threads = n_threads;
    sc_sections = sections;
    sc_max_events = max_events;
    sc_prepare = prepare;
  }

type outcome = Pass | Fail of Violation.t

type run = { outcome : outcome; taken : Decision.t; steps : Decision.step list }

(* Alternatives a deviation may pick at a decision point: every
   candidate except the default, minus Timeout events — firing a timeout
   before other same-instant work would make timed locks abort spuriously
   (a modelling artefact, not a schedule the substrate can produce). *)
let eligible (cands : Engine.candidate array) p =
  cands.(p).Engine.c_class <> Engine.Timeout

(* Sleep-set-style reduction: promoting candidate [p] to the front only
   yields a genuinely different interleaving if [p]'s event interferes
   with something it jumps over — same thread (program order) or same
   cache line (access order changes coherence state and wake order).
   Jumping over only unrelated events commutes with them, so the
   resulting schedule is equivalent to one the BFS reaches anyway by
   deviating later (or not at all); expanding it would re-explore the
   same state.

   Two conservative exceptions keep the reduction honest: engine-internal
   events (thread starts, pause expiries) all share the "(engine)"
   pseudo-line, so start-order deviations stay explorable; and an Rmw
   promotion is always kept, because an atomic read-modify-write is a
   race decision (CAS/swap on a lock word picks a winner) whose effects
   are not line-local — the loser parks or retries on other lines, so
   reordering it past even unrelated events can steer every later
   decision point (the MCS late-reset counterexample needs exactly such
   a promotion). *)
let interferes (cands : Engine.candidate array) p =
  let cp = cands.(p) in
  cp.Engine.c_class = Engine.Op_rmw
  ||
  let rec scan j =
    j < p
    && (cands.(j).Engine.c_tid = cp.Engine.c_tid
       || String.equal cands.(j).Engine.c_line cp.Engine.c_line
       || scan (j + 1))
  in
  scan 0

(* One run under an online chooser, asked at every decision point [dp]
   for the index of one of the [n >= 2] runnable candidates (0 = the
   default); an out-of-range answer runs the default. *)
let run_with ?(record = false) sc ~chooser =
  let n_dps = ref 0 in
  let taken = ref [] in
  let steps = ref [] in
  let policy ~step:_ ~n (cands : Engine.candidate array) =
    let dp =
      if n < 2 then -1
      else begin
        let dp = !n_dps in
        incr n_dps;
        dp
      end
    in
    let pick =
      if dp < 0 then 0
      else begin
        let p = chooser ~dp ~n cands in
        let p = if p < 0 || p >= n then 0 else p in
        if p > 0 then taken := { Decision.at = dp; pick = p } :: !taken;
        p
      end
    in
    if record then begin
      let c = cands.(pick) in
      steps :=
        {
          Decision.s_dp = dp;
          s_time = c.Engine.c_time;
          s_tid = c.Engine.c_tid;
          s_what =
            Engine.class_to_string c.Engine.c_class ^ " " ^ c.Engine.c_line;
          s_pick = pick;
          s_n = n;
        }
        :: !steps
    end;
    pick
  in
  let body, final = sc.sc_prepare () in
  let outcome =
    match
      Engine.run ~topology:sc.sc_topology ~n_threads:sc.sc_n_threads ~policy
        ~max_events:sc.sc_max_events body
    with
    | r ->
        if r.Engine.threads_finished < sc.sc_n_threads then
          Fail
            (Violation.make ~lock:sc.sc_name ~invariant:"no-progress"
               ~tid:(-1) ~at:r.Engine.end_time
               (Printf.sprintf
                  "event budget %d exhausted with %d of %d threads unfinished"
                  sc.sc_max_events
                  (sc.sc_n_threads - r.Engine.threads_finished)
                  sc.sc_n_threads))
        else (match final () with None -> Pass | Some v -> Fail v)
    | exception Engine.Thread_failure { exn = Violation.Violation v; _ } ->
        Fail v
    | exception Engine.Thread_failure { tid; exn; _ } ->
        Fail
          (Violation.make ~lock:sc.sc_name ~invariant:"thread-exception" ~tid
             ~at:0 (Printexc.to_string exn))
    | exception Engine.Deadlock { live; blocked; at } ->
        Fail
          (Violation.make ~lock:sc.sc_name ~invariant:"deadlock" ~tid:(-1)
             ~at
             (Printf.sprintf
                "%d threads live (%d parked) with no runnable event" live
                blocked))
  in
  { outcome; taken = List.rev !taken; steps = List.rev !steps }

let run_once ?record sc trace =
  run_with ?record sc ~chooser:(fun ~dp ~n:_ _ -> Decision.pick_at trace dp)

(* --- exhaustive exploration ------------------------------------------- *)

type exhaustive_report = {
  schedules : int;
  pruned : int;
  exhausted : bool;
  failure : (Decision.t * Violation.t) option;
}

(* Stateless BFS over deviation sequences, dscheck-style: a child extends
   its (passing) parent with one extra deviation at a decision point
   after the parent's last one, using the candidates the parent's run
   presented there — valid because the schedule up to that point is a
   pure function of the decision prefix. Only those points can branch,
   and only while the parent is under the preemption bound, so the
   children are collected there and nowhere else: a run at the bound
   (most of the BFS) builds no bookkeeping at all.

   With [prune], children whose new deviation only commutes with the
   events it jumps over (see [interferes]) are never enqueued; [pruned]
   counts them. The pruned BFS visits a subset of the full one and in
   the same order, so a clean pruned verdict never contradicts the full
   search, and a failure it finds is a failure of the full search too. *)
let exhaustive ?(preemptions = 2) ?(budget = 10_000) ?(prune = false) sc =
  let q = Queue.create () in
  Queue.add Decision.default q;
  let schedules = ref 0 in
  let pruned = ref 0 in
  let failure = ref None in
  while !failure = None && (not (Queue.is_empty q)) && !schedules < budget do
    let trace = Queue.take q in
    incr schedules;
    (* Children deviate strictly after [branch_after]. *)
    let branch_after =
      if List.length trace >= preemptions then max_int
      else
        match List.rev trace with [] -> -1 | d :: _ -> d.Decision.at
    in
    let children = ref [] in
    let cut = ref 0 in
    let chooser ~dp ~n cands =
      if dp > branch_after then
        for p = 1 to n - 1 do
          if eligible cands p then
            if (not prune) || interferes cands p then
              children := { Decision.at = dp; pick = p } :: !children
            else incr cut
        done;
      Decision.pick_at trace dp
    in
    match (run_with sc ~chooser).outcome with
    | Fail v -> failure := Some (trace, v)
    | Pass ->
        pruned := !pruned + !cut;
        List.iter (fun d -> Queue.add (trace @ [ d ]) q) (List.rev !children)
  done;
  {
    schedules = !schedules;
    pruned = !pruned;
    exhausted = !failure = None && Queue.is_empty q;
    failure = !failure;
  }

(* --- weighted-random schedule fuzzing ---------------------------------- *)

type fuzz_report = {
  fuzz_runs : int;
  fuzz_failure : (Decision.t * Violation.t) option;
}

let deviate_prob = 0.1

let fuzz ~seed ~runs sc =
  let rng = Prng.create seed in
  let failure = ref None in
  let n = ref 0 in
  (* Most decision points do not deviate, so alternatives are only
     counted there; the [k]-th is located only when one is picked. *)
  let chooser ~dp:_ ~n cands =
    let k = ref 0 in
    for p = 1 to n - 1 do
      if eligible cands p then incr k
    done;
    let k = !k in
    if k = 0 || not (Prng.chance rng deviate_prob) then 0
    else begin
      (* Weight alternative j by 1/(j+1): near-default perturbations
         are likelier, matching how real schedules drift. *)
      let total = ref 0. in
      for j = 0 to k - 1 do
        total := !total +. (1. /. float_of_int (j + 1))
      done;
      let x = ref (Prng.float rng !total) in
      let choice = ref (k - 1) in
      (try
         for j = 0 to k - 1 do
           x := !x -. (1. /. float_of_int (j + 1));
           if !x < 0. then begin
             choice := j;
             raise Exit
           end
         done
       with Exit -> ());
      let rec nth p j =
        if not (eligible cands p) then nth (p + 1) j
        else if j = 0 then p
        else nth (p + 1) (j - 1)
      in
      nth 1 !choice
    end
  in
  while !failure = None && !n < runs do
    incr n;
    let r = run_with sc ~chooser in
    match r.outcome with
    | Fail v -> failure := Some (r.taken, v)
    | Pass -> ()
  done;
  { fuzz_runs = !n; fuzz_failure = !failure }

(* --- shrinking --------------------------------------------------------- *)

(* A candidate shrink is accepted only if the run still fails with the
   same invariant: shrinking must not wander to a different bug. *)
let fails_same sc (v : Violation.t) trace =
  match (run_once sc trace).outcome with
  | Fail v' -> v'.Violation.invariant = v.Violation.invariant
  | Pass -> false

let shrink sc trace v =
  if not (fails_same sc v trace) then trace
  else begin
    (* Greedy deviation removal to a fixpoint. Dropping a deviation
       renumbers later decision points, so each candidate is re-judged by
       re-running, never by trace surgery alone. *)
    let removal t =
      let t = ref t in
      let i = ref 0 in
      while !i < List.length !t do
        let t' = List.filteri (fun j _ -> j <> !i) !t in
        if fails_same sc v t' then t := t' else incr i
      done;
      !t
    in
    let rec fixpoint t =
      let t' = removal t in
      if List.length t' < List.length t then fixpoint t' else t'
    in
    let t = fixpoint trace in
    (* Lower surviving picks toward the default choice, one deviation at
       a time so each trial sees the lowerings already accepted. *)
    let current = ref t in
    let set_pick at pick =
      List.map
        (fun d ->
          if d.Decision.at = at then { d with Decision.pick = pick } else d)
        !current
    in
    List.iter
      (fun d ->
        let rec go pick =
          if pick > 1 && fails_same sc v (set_pick d.Decision.at (pick - 1))
          then go (pick - 1)
          else pick
        in
        let p = go d.Decision.pick in
        if p <> d.Decision.pick then current := set_pick d.Decision.at p)
      t;
    !current
  end

(* --- counterexamples --------------------------------------------------- *)

type counterexample = {
  ce_trace : Decision.t;
  ce_violation : Violation.t;
  ce_steps : Decision.step list;
}

let counterexample sc trace =
  let r = run_once ~record:true sc trace in
  match r.outcome with
  | Fail v ->
      Some { ce_trace = r.taken; ce_violation = v; ce_steps = r.steps }
  | Pass -> None

let shrunk_counterexample sc (trace, v) =
  let t = shrink sc trace v in
  counterexample sc t

let pp_counterexample ppf ce =
  Format.fprintf ppf "@[<v>%a@,decision trace: %s@," Violation.pp
    ce.ce_violation
    (Decision.to_string ce.ce_trace);
  let n = List.length ce.ce_steps in
  let tail = 60 in
  let steps =
    if n <= tail then ce.ce_steps
    else begin
      Format.fprintf ppf "(… %d earlier steps elided)@," (n - tail);
      List.filteri (fun i _ -> i >= n - tail) ce.ce_steps
    end
  in
  Decision.pp_interleaving ppf steps;
  Format.fprintf ppf "@]"
