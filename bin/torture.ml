(* Randomized torture campaign: throws random configurations (lock,
   topology, thread count, critical/non-critical section lengths, handoff
   policy, patience) at every lock in the registry and verifies mutual
   exclusion, full progress, and post-abort lock health on each.

     dune exec bin/torture.exe -- [rounds] [seed] [--native] [--oracle]
                                  [--topology SPEC]

   The campaign itself is substrate-generic (Harness.Torture_core); by
   default it drives simulated fibers, where every run is deterministic
   given its parameters and a failure prints an exactly reproducing
   configuration. With --native the same campaign drives real domains
   (default rounds drop to 10: domains are heavily oversubscribed on this
   container, and native failures are probabilistic rather than
   replayable). --oracle additionally enables the cohort-handoff-legality
   and FIFO property oracles from Numa_check (sim only: they consume the
   trace stream, which is serialised only on the deterministic runtime).
   --topology pins every case to one machine (t5440|small|rack|CxT|RxSxT)
   instead of the per-case generated flat one; cases with more threads
   than it has contexts run oversubscribed. Exits non-zero on the first
   violation. *)

module Sim_torture =
  Harness.Torture_core.Make (Numasim.Sim_mem) (Numasim.Sim_runtime)

let run rounds seed native oracles topology =
  let rounds =
    match rounds with Some r -> r | None -> if native then 10 else 200
  in
  let log msg = Printf.printf "%s\n%!" msg in
  let failures =
    if native then
      Harness.Native.Torture.campaign ~oracles ?topology ~log ~rounds ~seed ()
    else Sim_torture.campaign ~oracles ?topology ~log ~rounds ~seed ()
  in
  let substrate = if native then "native domains" else "sim" in
  let substrate =
    match topology with
    | Some t -> substrate ^ " on " ^ t.Numa_base.Topology.name
    | None -> substrate
  in
  let suffix = if oracles then " + oracles" else "" in
  if failures = 0 then begin
    Printf.printf
      "torture (%s): %d rounds x (every lock pool + abortable)%s — all clean\n"
      substrate rounds suffix;
    0
  end
  else begin
    Printf.printf "torture (%s): %d failures\n" substrate failures;
    1
  end

open Cmdliner

let cmd =
  let rounds =
    Arg.(
      value
      & pos 0 (some (Cli.positive "round count")) None
      & info [] ~docv:"ROUNDS"
          ~doc:"Rounds in the campaign (default 200, or 10 with --native).")
  in
  let seed =
    Arg.(value & pos 1 int 1 & info [] ~docv:"SEED" ~doc:"Campaign seed.")
  in
  let native =
    Arg.(value & flag & info [ "native" ] ~doc:"Drive real domains.")
  in
  let oracles =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:"Add the handoff-legality and FIFO property oracles (sim only).")
  in
  let topology =
    Arg.(
      value
      & opt (some Cli.topology) None
      & info [ "topology" ] ~docv:"SPEC"
          ~doc:"Pin every case to one machine (t5440|small|rack|CxT|RxSxT).")
  in
  Cmd.v
    (Cmd.info "torture" ~doc:"randomized torture campaign over every lock")
    Term.(const run $ rounds $ seed $ native $ oracles $ topology)

let () = exit (Cmd.eval' cmd)
