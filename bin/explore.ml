(* Schedule-exploration CLI over Numa_check (see doc/SIMULATOR.md,
   "Schedule exploration").

     dune exec bin/explore.exe -- [LOCK ...] [flags]

   Modes:
   - exhaustive (default): BFS over every schedule within the preemption
     bound; clean locks report the schedule count, failures are shrunk
     and printed as an interleaving.
   - fuzz: weighted-random schedules from a seed.
   - --replay TRACE: run one decision trace on one lock and print it.
   - --mutants: the four seeded-bug locks must each be caught.
   - --quick: the CI smoke — exhaustive C-BO-MCS clean + the skip-limit
     mutant caught.

   Exhaustive search prunes commuting deviations by default (see
   Explore.exhaustive); --no-prune runs the full BFS. Reports show both
   schedules visited and deviations pruned.

   Lock names resolve through the registry first, then the mutants
   (C-BO-MCS!skip-limit, TKT!lost-ticket, MCS!late-reset,
   GCR-MCS!dropped-unpark); any other name is a usage error (exit 124).
   Exit status is otherwise nonzero when a genuine lock fails, when a
   mutant is NOT caught, or when a --replay trace does not parse or does
   not apply in full. *)

module E = Numa_check.Explore
module D = Numa_check.Decision
module V = Numa_check.Violation
module Mut = Numa_check.Mutants.Make (Numasim.Sim_mem)
module R = Harness.Lock_registry
module LI = Cohort.Lock_intf

let names =
  List.map (fun e -> e.R.name) R.all_locks
  @ List.map (fun (module L : LI.LOCK) -> L.name) Mut.all

(* [name] is one of [names]: the command line admits no other. *)
let find_lock name =
  match R.find name with
  | Some e -> e.R.lock
  | None -> Option.get (Mut.find name)

let pp_failure sc (trace, v) =
  match E.shrunk_counterexample sc (trace, v) with
  | Some ce -> Format.printf "%a@." E.pp_counterexample ce
  | None ->
      (* Shrinking re-runs traces; losing the failure would mean the run
         is not a function of its trace. Report loudly. *)
      Format.printf "UNSTABLE: failure did not replay under shrinking:@.%s@."
        (V.to_string v)

let explore_one ~mode ~preemptions ~budget ?topology ~threads ~sections ~seed
    ~runs ~prune name =
  let sc = E.scenario ?topology ~n_threads:threads ~sections (find_lock name) in
  match mode with
  | `Exhaustive -> (
      let r = E.exhaustive ~preemptions ~budget ~prune sc in
      match r.E.failure with
      | None ->
          Printf.printf
            "%-20s clean: %d schedules, %d pruned (preemptions<=%d%s)\n%!"
            name r.E.schedules r.E.pruned preemptions
            (if r.E.exhausted then ", exhausted"
             else ", budget " ^ string_of_int budget ^ " hit");
          `Clean
      | Some f ->
          Printf.printf "%-20s FAILED after %d schedules\n%!" name
            r.E.schedules;
          pp_failure sc f;
          `Caught)
  | `Fuzz -> (
      let r = E.fuzz ~seed ~runs sc in
      match r.E.fuzz_failure with
      | None ->
          Printf.printf "%-20s clean: %d fuzzed schedules (seed %d)\n%!"
            name r.E.fuzz_runs seed;
          `Clean
      | Some f ->
          Printf.printf "%-20s FAILED after %d fuzzed schedules\n%!" name
            r.E.fuzz_runs;
          pp_failure sc f;
          `Caught)

(* Why a requested deviation left no mark in [r.taken]: its decision
   point had too few candidates, or the run never got that far. *)
let print_unapplied (r : E.run) (d : D.deviation) =
  match List.find_opt (fun st -> st.D.s_dp = d.at) r.E.steps with
  | Some st ->
      Printf.printf "  %d:%d  pick out of range (%d candidates)\n" d.at d.pick
        st.D.s_n
  | None ->
      Printf.printf
        "  %d:%d  decision point never reached (the run has %d of them)\n" d.at
        d.pick
        (List.length (List.filter (fun st -> st.D.s_dp >= 0) r.E.steps))

let run_replay ?topology ~threads ~sections name trace_str =
  match D.of_string trace_str with
  | None ->
      Printf.printf "malformed decision trace %S (want \"at:pick,...\")\n"
        trace_str;
      1
  | Some trace -> (
      let sc =
        E.scenario ?topology ~n_threads:threads ~sections (find_lock name)
      in
      let r = E.run_once ~record:true sc trace in
      (* A deviation that did not take effect means the run was some
         other schedule: report which, never that schedule's verdict. *)
      match List.filter (fun d -> not (List.mem d r.E.taken)) trace with
      | _ :: _ as unapplied ->
          Printf.printf "replay of %s on %s: not applied:\n"
            (D.to_string trace) name;
          List.iter (print_unapplied r) unapplied;
          1
      | [] -> (
          Format.printf "%a@." D.pp_interleaving r.E.steps;
          match r.E.outcome with
          | E.Pass ->
              Printf.printf "replay of %s on %s: PASS\n" (D.to_string trace)
                name;
              0
          | E.Fail v ->
              Printf.printf "replay of %s on %s: FAIL — %s\n"
                (D.to_string trace) name (V.to_string v);
              0))

let run_mutants ~preemptions ~budget ?topology ~threads ~sections ~prune () =
  let bad = ref 0 in
  List.iter
    (fun (module L : LI.LOCK) ->
      match
        explore_one ~mode:`Exhaustive ~preemptions ~budget ?topology ~threads
          ~sections ~seed:0 ~runs:0 ~prune L.name
      with
      | `Caught -> ()
      | `Clean ->
          incr bad;
          Printf.printf "MUTANT ESCAPED: %s was not caught\n%!" L.name)
    Mut.all;
  if !bad = 0 then Printf.printf "all %d mutants caught\n" (List.length Mut.all);
  if !bad = 0 then 0 else 1

let run_quick ?topology () =
  (* Exhaustive exploration of the genuine C-BO-MCS at the full
     2-preemption bound must come back clean and exhausted, and the
     skip-limit mutant must be caught: oracle soundness + sensitivity in
     one cheap smoke. The soundness leg honours --topology; the mutant
     leg stays on the default machine, where round-robin placement
     co-locates two of the three threads so a skip-limit bug can fire at
     all. *)
  let sc = E.scenario ?topology (find_lock "C-BO-MCS") in
  let r = E.exhaustive ~preemptions:2 ~budget:10_000 ~prune:true sc in
  (match r.E.failure with
  | None ->
      Printf.printf
        "explore smoke: C-BO-MCS clean (%d schedules, %d pruned%s)\n%!"
        r.E.schedules r.E.pruned
        (if r.E.exhausted then ", exhausted" else "")
  | Some f ->
      Printf.printf "explore smoke: C-BO-MCS FAILED\n%!";
      pp_failure sc f;
      exit 1);
  if not r.E.exhausted then begin
    Printf.printf "explore smoke: C-BO-MCS search not exhausted\n%!";
    exit 1
  end;
  let msc = E.scenario Mut.skip_limit in
  (match
     (E.exhaustive ~preemptions:2 ~budget:10_000 ~prune:true msc).E.failure
   with
  | Some (trace, v) ->
      Printf.printf "explore smoke: mutant caught as expected (%s, trace %s)\n%!"
        v.V.invariant (D.to_string trace)
  | None ->
      Printf.printf "explore smoke: skip-limit mutant NOT caught\n%!";
      exit 1);
  0

open Cmdliner

let locks_arg =
  Arg.(value & pos_all (Cli.lock names) [] & info [] ~docv:"LOCK" ~doc:"Locks to explore, by registry or mutant name (default: the whole registry).")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("exhaustive", `Exhaustive); ("fuzz", `Fuzz) ]) `Exhaustive
    & info [ "mode" ] ~docv:"MODE" ~doc:"exhaustive or fuzz.")

let preemptions_arg =
  Arg.(value & opt (Cli.non_negative "preemption bound") 2 & info [ "preemptions" ] ~doc:"Preemption bound (exhaustive).")

let budget_arg =
  Arg.(value & opt (Cli.positive "budget") 10_000 & info [ "budget" ] ~doc:"Max schedules per lock (exhaustive).")

let threads_arg =
  Arg.(value & opt (Cli.positive "thread count") 3 & info [ "threads" ] ~doc:"Threads in the scenario.")

let sections_arg =
  Arg.(value & opt (Cli.positive "section count") 3 & info [ "sections" ] ~doc:"Critical sections per thread.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fuzz seed.")

let runs_arg =
  Arg.(value & opt (Cli.positive "run count") 500 & info [ "runs" ] ~doc:"Fuzzed schedules per lock.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"TRACE"
        ~doc:"Replay a decision trace (\"at:pick,...\" or \"default\") on the given LOCK and print the interleaving. Exits 1, naming them, if some deviations do not apply (pick out of range, decision point never reached).")

let mutants_arg =
  Arg.(value & flag & info [ "mutants" ] ~doc:"Check the four seeded mutants are caught.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke: C-BO-MCS clean + skip-limit mutant caught.")

let topology_arg =
  Arg.(
    value
    & opt (some Cli.topology) None
    & info [ "topology" ] ~docv:"SPEC"
        ~doc:
          "Machine model for the scenarios: t5440|small|rack, CxT for a flat \
           machine, or RxSxT for a rack-of-sockets hierarchy (default: \
           small).")

let no_prune_arg =
  Arg.(
    value & flag
    & info [ "no-prune" ]
        ~doc:"Disable the commuting-deviation reduction and run the full \
              exhaustive BFS.")

let main locks mode preemptions budget topology threads sections seed runs
    replay mutants quick no_prune =
  let prune = not no_prune in
  if quick then exit (run_quick ?topology ());
  if mutants then
    exit
      (run_mutants ~preemptions ~budget ?topology ~threads ~sections ~prune ());
  match replay with
  | Some trace_str -> (
      match locks with
      | [ name ] ->
          exit (run_replay ?topology ~threads ~sections name trace_str)
      | _ ->
          prerr_endline "--replay needs exactly one LOCK";
          exit 2)
  | None ->
      let names =
        if locks <> [] then locks
        else List.map (fun e -> e.R.name) R.all_locks
      in
      let failures = ref 0 in
      List.iter
        (fun name ->
          match
            explore_one ~mode ~preemptions ~budget ?topology ~threads
              ~sections ~seed ~runs ~prune name
          with
          | `Clean -> ()
          | `Caught -> incr failures)
        names;
      if !failures > 0 then exit 1

let cmd =
  let doc = "bounded schedule exploration of the lock registry" in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      const main $ locks_arg $ mode_arg $ preemptions_arg $ budget_arg
      $ topology_arg $ threads_arg $ sections_arg $ seed_arg $ runs_arg
      $ replay_arg $ mutants_arg $ quick_arg $ no_prune_arg)

let () = exit (Cmd.eval cmd)
