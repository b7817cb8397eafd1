(* The composition table: every global x local pairing must be a
   correct lock, including the 11 the paper never names — mutually
   exclusive, batching, and exhaustively clean under schedule
   exploration — and a local lock that lies about its cohort must be
   caught. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module LI = Cohort.Lock_intf
module X = Numa_check.Explore
module D = Numa_check.Decision
module V = Numa_check.Violation
module Table = Cohort.Cohort_locks.Make (M)

let topo = Topology.small
let cfg = { LI.default with LI.clusters = topo.Topology.clusters }

let me_test (name, (module L : LI.LOCK)) =
  Alcotest.test_case name `Quick (fun () ->
      let l = L.create cfg in
      let in_cs = ref 0 in
      let violations = ref 0 in
      let total = ref 0 in
      ignore
        (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
             let rng = Prng.create (tid + 3) in
             let th = L.register l ~tid ~cluster in
             for _ = 1 to 40 do
               L.acquire th;
               incr in_cs;
               if !in_cs <> 1 then incr violations;
               M.pause (20 + Prng.int rng 150);
               if !in_cs <> 1 then incr violations;
               incr total;
               decr in_cs;
               L.release th;
               M.pause (Prng.int rng 300)
             done));
      Alcotest.(check int) (name ^ ": no violations") 0 !violations;
      Alcotest.(check int) (name ^ ": progress") 320 !total)

let test_matrix_shape () =
  let names = List.map fst Table.all in
  Alcotest.(check int) "16 compositions" 16 (List.length names);
  Alcotest.(check int) "unique names" 16
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (pair string string)) "row-major"
    ("C-BO-BO", "C-CLH-CLH")
    (List.hd names, List.nth names 15);
  (* The paper's five named locks are all present. *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "C-BO-BO"; "C-TKT-TKT"; "C-BO-MCS"; "C-TKT-MCS"; "C-MCS-MCS" ];
  List.iter
    (fun (n, (module L : LI.LOCK)) ->
      Alcotest.(check string) "entry named as its lock" n L.name)
    Table.all

let test_matrix_get () =
  let (module L) = Table.get ~global:"TKT" ~local:"MCS" in
  Alcotest.(check string) "lookup by axes" "C-TKT-MCS" L.name;
  List.iter
    (fun (global, local) ->
      match Table.get ~global ~local with
      | _ -> Alcotest.failf "%s/%s accepted" global local
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the axis" msg)
            true
            (String.ends_with ~suffix:"\"nope\"" msg))
    [ ("nope", "MCS"); ("BO", "nope") ]

(* Every composition batches: with two clusters contending, migrations
   stay well below acquisitions. *)
let batching_test (name, (module L : LI.LOCK)) =
  Alcotest.test_case name `Quick (fun () ->
      let l = L.create cfg in
      let migs = ref 0 in
      let acqs = ref 0 in
      let last = ref (-1) in
      ignore
        (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
             let th = L.register l ~tid ~cluster in
             for _ = 1 to 50 do
               L.acquire th;
               incr acqs;
               if !last <> cluster then begin
                 incr migs;
                 last := cluster
               end;
               M.pause 80;
               L.release th;
               M.pause 120
             done));
      Alcotest.(check bool)
        (Printf.sprintf "%s batches (%d migrations / %d)" name !migs !acqs)
        true
        (!migs * 3 < !acqs))

(* The generality claim, model-checked: every composition is clean under
   the oracles on every schedule within two preemptions. *)
let explore_test (name, lock) =
  Alcotest.test_case name `Quick (fun () ->
      let r = X.exhaustive ~preemptions:2 ~prune:true (X.scenario lock) in
      Alcotest.(check bool) (name ^ ": search exhausted") true r.X.exhausted;
      match r.X.failure with
      | None -> ()
      | Some (trace, v) ->
          Alcotest.failf "%s: trace %s: %s" name (D.to_string trace)
            (V.to_string v))

(* Cohort detection is the local lock's one obligation: an MCS local
   lock whose [alone] always reports a waiter passes the lock to an
   empty cohort, stranding the global lock in its cluster. The handoff
   oracle must object on the default schedule already. Not in
   [Numa_check.Mutants.all]: this mutant is built through the table. *)
module Mcs = Cohort.Mcs_lock.Make (M)

module Lying_local = struct
  include Mcs.Local

  let alone _ = false
end

let test_lying_alone () =
  let lock =
    Table.compose
      ~global:("BO", List.assoc "BO" Table.globals)
      ~local:("MCS!lying-alone", (module Lying_local))
  in
  let r = X.exhaustive ~preemptions:2 ~prune:true (X.scenario lock) in
  match r.X.failure with
  | None -> Alcotest.fail "lying cohort detection not caught"
  | Some (trace, v) ->
      Alcotest.(check string) "default schedule" "default" (D.to_string trace);
      Alcotest.(check int) "one schedule" 1 r.X.schedules;
      Alcotest.(check string) "invariant" "cohort-handoff-empty"
        v.V.invariant

let suite =
  [
    ( "structure",
      [
        Alcotest.test_case "shape" `Quick test_matrix_shape;
        Alcotest.test_case "get" `Quick test_matrix_get;
      ] );
    ("mutual_exclusion", List.map me_test Table.all);
    ("batching", List.map batching_test Table.all);
    ("explore", List.map explore_test Table.all);
    ( "cohort_detection",
      [ Alcotest.test_case "lying alone caught" `Quick test_lying_alone ] );
  ]

let () = Alcotest.run "matrix" suite
