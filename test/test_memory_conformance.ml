(* MEMORY-substrate conformance: one body of semantic checks applied to
   both implementations (Atomic-backed native, effects-backed simulated).
   The lock algorithms are written once against this signature, so the
   two substrates must agree on every observable behaviour. *)

module type MEM = Numa_base.Memory_intf.MEMORY

(* A variant payload to exercise polymorphic cells; CAS compares
   physically, so constant constructors compare reliably and block values
   compare by allocation identity. *)
type colour = Red | Green | Boxed of int

module Checks (M : MEM) = struct
  let fail fmt = Printf.ksprintf failwith fmt
  let check_bool what b = if not b then fail "%s" what
  let check_int what exp got =
    if exp <> got then fail "%s: expected %d, got %d" what exp got

  let roundtrip () =
    let c = M.cell' 5 in
    check_int "initial read" 5 (M.read c);
    M.write c 9;
    check_int "read after write" 9 (M.read c)

  let cas_semantics () =
    let c = M.cell' 1 in
    check_bool "cas succeeds on match" (M.cas c ~expect:1 ~desire:2);
    check_int "cas installed" 2 (M.read c);
    check_bool "cas fails on mismatch" (not (M.cas c ~expect:1 ~desire:3));
    check_int "failed cas left value" 2 (M.read c)

  let cas_physical_equality () =
    (* Structurally equal but distinct allocations; opaque_identity keeps
       the compiler from sharing the two constant blocks. *)
    let v1 = Boxed (Sys.opaque_identity 1) in
    let v2 = Boxed (Sys.opaque_identity 1) in
    let c = M.cell' v1 in
    check_bool "cas on different box fails" (not (M.cas c ~expect:v2 ~desire:Red));
    check_bool "cas on same box succeeds" (M.cas c ~expect:v1 ~desire:Green);
    check_bool "constant ctor roundtrip" (M.read c == Green)

  let swap_semantics () =
    let c = M.cell' 10 in
    check_int "swap returns old" 10 (M.swap c 20);
    check_int "swap installs" 20 (M.read c)

  let faa_semantics () =
    let c = M.cell' 100 in
    check_int "faa returns old" 100 (M.fetch_and_add c 7);
    check_int "faa adds" 107 (M.read c);
    check_int "faa negative" 107 (M.fetch_and_add c (-7));
    check_int "faa subtracted" 100 (M.read c)

  let cells_on_one_line_independent () =
    let ln = M.line () in
    let a = M.cell ln 1 and b = M.cell ln 2 in
    M.write a 10;
    check_int "sibling untouched" 2 (M.read b);
    check_int "written cell" 10 (M.read a)

  let line_site_labels () =
    (* Labelled creation keys the coherence profiler's attribution; both
       substrates must preserve the label and default to "". *)
    let named = M.line ~name:"conf.site" () in
    check_bool "line_site returns the creation label"
      (M.line_site named = "conf.site");
    check_bool "unnamed line carries the empty label"
      (M.line_site (M.line ()) = "");
    let a = M.cell named 3 and b = M.cell named 4 in
    M.write a 30;
    check_int "labelled line: sibling untouched" 4 (M.read b);
    check_int "labelled line: written cell" 30 (M.read a);
    let c = M.cell' ~name:"conf.cell" 11 in
    check_int "labelled cell' roundtrip" 11 (M.read c)

  let wait_until_immediate () =
    let c = M.cell' 42 in
    check_int "wait on satisfied pred" 42 (M.wait_until c (fun v -> v = 42))

  let wait_until_for_immediate () =
    let c = M.cell' 1 in
    match M.wait_until_for c (fun v -> v = 1) ~timeout:1_000_000 with
    | Some 1 -> ()
    | _ -> fail "wait_until_for on satisfied pred"

  let wait_until_for_timeout () =
    let c = M.cell' 0 in
    match M.wait_until_for c (fun v -> v = 1) ~timeout:1_000 with
    | None -> ()
    | Some _ -> fail "wait_until_for should time out"

  let now_monotonic () =
    let t0 = M.now () in
    M.pause 500;
    let t1 = M.now () in
    check_bool "now advances across pause" (t1 >= t0 + 500);
    let t2 = M.now () in
    check_bool "now never regresses" (t2 >= t1)

  let pause_edge_cases () =
    M.pause 0;
    M.pause (-1);
    M.cpu_relax ()

  let all =
    [
      ("roundtrip", roundtrip);
      ("cas semantics", cas_semantics);
      ("cas physical equality", cas_physical_equality);
      ("swap", swap_semantics);
      ("fetch_and_add", faa_semantics);
      ("line sharing independence", cells_on_one_line_independent);
      ("line site labels", line_site_labels);
      ("wait_until immediate", wait_until_immediate);
      ("wait_until_for immediate", wait_until_for_immediate);
      ("wait_until_for timeout", wait_until_for_timeout);
      ("now monotonic", now_monotonic);
      ("pause edge cases", pause_edge_cases);
    ]
end

module Native_checks = Checks (Numa_native.Nat_mem)
module Sim_checks = Checks (Numasim.Sim_mem)

(* --- Differential property: random op sequences ------------------------- *)

(* A random single-thread sequence of the five value-returning primitives
   over a few shared cells must produce byte-identical value histories on
   both substrates: every op's observable result plus a final read of
   each cell. Values are drawn from a small range so CAS expectations hit
   and miss; qcheck's list shrinking minimises any diverging sequence. *)

type mop =
  | Load of int
  | Store of int * int
  | Cas of int * int * int
  | Swap of int * int
  | Faa of int * int

let n_cells = 3

module Diff (M : MEM) = struct
  let history ops =
    let cells = Array.init n_cells (fun _ -> M.cell' 0) in
    let h = ref [] in
    let push v = h := v :: !h in
    List.iter
      (function
        | Load c -> push (M.read cells.(c))
        | Store (c, x) -> M.write cells.(c) x
        | Cas (c, e, d) ->
            push (if M.cas cells.(c) ~expect:e ~desire:d then 1 else 0)
        | Swap (c, x) -> push (M.swap cells.(c) x)
        | Faa (c, x) -> push (M.fetch_and_add cells.(c) x))
      ops;
    Array.iter (fun c -> push (M.read c)) cells;
    List.rev !h
end

module Nat_diff = Diff (Numa_native.Nat_mem)
module Sim_diff = Diff (Numasim.Sim_mem)

let mop_gen =
  QCheck.Gen.(
    let cell = int_range 0 (n_cells - 1) in
    let v = int_range 0 3 in
    frequency
      [
        (3, map (fun c -> Load c) cell);
        (3, map2 (fun c x -> Store (c, x)) cell v);
        (3, map3 (fun c e d -> Cas (c, e, d)) cell v v);
        (2, map2 (fun c x -> Swap (c, x)) cell v);
        (2, map2 (fun c x -> Faa (c, x)) cell (int_range (-2) 2));
      ])

let mop_print = function
  | Load c -> Printf.sprintf "L%d" c
  | Store (c, x) -> Printf.sprintf "S%d<-%d" c x
  | Cas (c, e, d) -> Printf.sprintf "C%d:%d->%d" c e d
  | Swap (c, x) -> Printf.sprintf "X%d<-%d" c x
  | Faa (c, x) -> Printf.sprintf "F%d+%d" c x

let arb_mops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 100) mop_gen)
    ~print:(fun ops -> String.concat ";" (List.map mop_print ops))
    ~shrink:QCheck.Shrink.list

let prop_substrates_agree =
  QCheck.Test.make ~name:"Sim_mem and Nat_mem value histories agree"
    ~count:300 arb_mops (fun ops ->
      let nat = Nat_diff.history ops in
      let sim = ref [] in
      ignore
        (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:1
           (fun ~tid:_ ~cluster:_ -> sim := Sim_diff.history ops));
      nat = !sim)

let native_case (name, f) = Alcotest.test_case name `Quick f

(* Simulated checks run inside an engine fiber. *)
let sim_case (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      ignore
        (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:1
           (fun ~tid:_ ~cluster:_ -> f ())))

let () =
  Alcotest.run "memory_conformance"
    [
      ("native", List.map native_case Native_checks.all);
      ("simulated", List.map sim_case Sim_checks.all);
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_substrates_agree ] );
    ]
