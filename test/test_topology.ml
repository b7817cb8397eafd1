(* Property suite for the hierarchical Topology model. The placement
   rule (cluster_of_thread) and the precomputed transfer/crossing-level
   matrices feed both the coherence model and every lock's cluster
   assignment, so each is checked here against an independent
   reference: the closed form for placement, a mixed-radix digit walk
   for the level structure, and the historical flat constructor for the
   single-level case. *)

open Numa_base
module T = Topology

(* A random machine, described by data simple enough to print on
   failure: level arities (outermost first, product <= 27 clusters) and
   contexts per cluster. *)
type spec = { s_arities : int list; s_tpc : int }

let build s =
  let levels =
    List.mapi
      (fun i a ->
        (* Transfers shrink inward, as on a real machine; channel counts
           and occupancies vary so pool wiring is exercised too. *)
        T.level
          ~name:(Printf.sprintf "l%d" i)
          ~arity:a
          ~transfer:(400 - (100 * i))
          ~channels:(1 + (i mod 3))
          ~occupancy:(10 * i) ())
      s.s_arities
  in
  T.make_hier ~name:"qc" ~levels ~threads_per_cluster:s.s_tpc Latency.t5440

let gen_spec =
  QCheck.Gen.(
    let* depth = 1 -- 3 in
    let* s_arities = list_repeat depth (1 -- 3) in
    let* s_tpc = 1 -- 8 in
    return { s_arities; s_tpc })

let print_spec s =
  Printf.sprintf "arities=[%s] tpc=%d"
    (String.concat ";" (List.map string_of_int s.s_arities))
    s.s_tpc

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* --- placement --------------------------------------------------------- *)

(* Every thread id — oversubscribed ones included — wraps modulo the
   context count and lands round-robin on the clusters. *)
let prop_cluster_in_range =
  QCheck.Test.make ~name:"cluster_of_thread in range, wraps modulo contexts"
    ~count:500 arb_spec (fun s ->
      let t = build s in
      let total = T.total_threads t in
      let ok = ref true in
      for tid = 0 to (3 * total) - 1 do
        if T.cluster_of_thread t tid <> tid mod total mod t.T.clusters then
          ok := false;
        if T.context_of_thread t tid <> tid mod total then ok := false
      done;
      !ok)

(* --- level structure --------------------------------------------------- *)

(* Reference crossing level: write each cluster in the mixed radix given
   by the level arities (outermost digit first); the crossing level is
   the first digit where the two clusters differ. *)
let digits arities d =
  let rec go acc d = function
    | [] -> acc
    | a :: rest -> go (d mod a :: acc) (d / a) rest
  in
  (* innermost arity peels off first, so walk the list reversed and
     accumulate back to outermost-first order. *)
  go [] d (List.rev arities)

let ref_cross_level arities a b =
  let rec first i = function
    | da :: ra, db :: rb -> if da <> db then i else first (i + 1) (ra, rb)
    | _ -> invalid_arg "ref_cross_level: equal clusters"
  in
  first 0 (digits arities a, digits arities b)

let prop_matrices =
  QCheck.Test.make
    ~name:"xfer/cross_level match the mixed-radix reference" ~count:500
    arb_spec (fun s ->
      let t = build s in
      let ok = ref true in
      for a = 0 to t.T.clusters - 1 do
        for b = 0 to t.T.clusters - 1 do
          if a = b then begin
            if T.xfer_cost t a b <> 0 then ok := false
          end
          else begin
            let lvl = ref_cross_level s.s_arities a b in
            if T.cross_level t a b <> lvl then ok := false;
            if T.xfer_cost t a b <> t.T.levels.(lvl).T.l_transfer then
              ok := false;
            if T.xfer_cost t a b <> T.xfer_cost t b a then ok := false
          end
        done
      done;
      !ok)

(* A single-level hierarchy built through make_hier is the flat machine:
   same shape, same placement, and every off-diagonal transfer is
   the latency preset's remote_transfer — exactly what Topology.make
   produces. *)
let prop_flat_equivalence =
  QCheck.Test.make ~name:"1-level make_hier = flat make" ~count:200
    QCheck.(pair (make ~print:string_of_int Gen.(1 -- 8))
              (make ~print:string_of_int Gen.(1 -- 8)))
    (fun (clusters, tpc) ->
      let lat = Latency.t5440 in
      let flat = T.make ~clusters ~threads_per_cluster:tpc lat in
      let hier =
        T.make_hier
          ~levels:
            [
              T.level ~name:"socket" ~arity:clusters
                ~transfer:lat.Latency.remote_transfer
                ~channels:lat.Latency.interconnect_channels
                ~occupancy:lat.Latency.interconnect_occupancy ();
            ]
          ~threads_per_cluster:tpc lat
      in
      let ok = ref (flat.T.clusters = hier.T.clusters) in
      ok := !ok && T.total_threads flat = T.total_threads hier;
      for tid = 0 to (2 * T.total_threads flat) - 1 do
        if T.cluster_of_thread flat tid <> T.cluster_of_thread hier tid then
          ok := false
      done;
      for a = 0 to clusters - 1 do
        for b = 0 to clusters - 1 do
          if T.xfer_cost flat a b <> T.xfer_cost hier a b then ok := false;
          if a <> b && T.xfer_cost hier a b <> lat.Latency.remote_transfer
          then ok := false
        done
      done;
      !ok)

(* The prediction calibration's mean transfer cost agrees with a
   reference loop over every ordered cluster pair (the matrix is
   symmetric, so ordered = unordered); a flat machine reports exactly
   the preset's remote_transfer. *)
let mean_remote_transfer_ns t = (T.predict_calib t).Numa_trace.Predict.remote_ns

let prop_mean_remote =
  QCheck.Test.make ~name:"mean_remote_transfer_ns = reference mean" ~count:200
    arb_spec (fun s ->
      let t = build s in
      if t.T.clusters = 1 then
        mean_remote_transfer_ns t
        = float_of_int t.T.levels.(0).T.l_transfer
      else begin
        let sum = ref 0 and n = ref 0 in
        for a = 0 to t.T.clusters - 1 do
          for b = 0 to t.T.clusters - 1 do
            if a <> b then begin
              sum := !sum + T.xfer_cost t a b;
              incr n
            end
          done
        done;
        let reference = float_of_int !sum /. float_of_int !n in
        Float.abs (mean_remote_transfer_ns t -. reference) < 1e-6
      end)

(* Both spec grammars enforce the coherence model's 62-cluster bound:
   an oversized flat or rack spec is an error, not an exception. *)
let test_of_spec_bounds () =
  let is_error s = Result.is_error (T.of_spec s) in
  Alcotest.(check bool) "70x1 rejected" true (is_error "70x1");
  Alcotest.(check bool) "8x8x1 rejected" true (is_error "8x8x1");
  Alcotest.(check bool) "62x1 accepted" false (is_error "62x1");
  Alcotest.(check bool) "2x31x1 accepted" false (is_error "2x31x1")

let test_mean_remote_flat () =
  Alcotest.(check (float 0.))
    "t5440 mean transfer = remote_transfer" 125.
    (mean_remote_transfer_ns T.t5440)

let () =
  Alcotest.run "topology"
    [
      ( "placement",
        List.map QCheck_alcotest.to_alcotest [ prop_cluster_in_range ] );
      ( "hierarchy",
        List.map QCheck_alcotest.to_alcotest
          [ prop_matrices; prop_flat_equivalence; prop_mean_remote ]
        @ [
            Alcotest.test_case "flat mean transfer" `Quick
              test_mean_remote_flat;
            Alcotest.test_case "of_spec bounds" `Quick test_of_spec_bounds;
          ] );
    ]
