(* Tests for the application substrates: splay tree (vs. a Map model),
   allocator, KV store, workload generator. Functional behaviour is tested
   over the native memory substrate (no engine needed); charging behaviour
   is exercised inside the simulator. *)

module Splay = Apps.Splay
module Nm = Numa_native.Nat_mem
module Alloc = Apps.Allocator.Make (Nm)
module Kv = Apps.Kvstore.Make (Nm)
module W = Apps.Kv_workload

(* --- Splay tree ---------------------------------------------------------- *)

(* Exact lookup and removal as the allocator does them: [find_ge k]
   splays the smallest key >= [k] to the root, so [k] itself is a hit,
   and [remove_root] then deletes it. *)
let find k t =
  match Splay.find_ge k t with
  | Some (k', v, t') when k' = k -> Some (v, t')
  | _ -> None

let remove k t =
  match find k t with Some (_, t') -> Splay.remove_root t' | None -> t

let size t = List.length (Splay.to_sorted_list t)

(* [k], a key of [t], is its root: the only node one deep. *)
let at_root k t = Splay.depth_of k t = 1

let test_splay_basic () =
  let t = Splay.empty in
  Alcotest.(check int) "empty" 0 (size t);
  let t = Splay.insert 5 "a" ~combine:( ^ ) t in
  let t = Splay.insert 3 "b" ~combine:( ^ ) t in
  let t = Splay.insert 8 "c" ~combine:( ^ ) t in
  Alcotest.(check int) "size" 3 (size t);
  Alcotest.(check bool) "invariant" true (Splay.check_invariant t);
  (match find 5 t with
  | Some (v, t') ->
      Alcotest.(check string) "find 5" "a" v;
      Alcotest.(check bool) "find splays to root" true (at_root 5 t')
  | None -> Alcotest.fail "5 missing");
  Alcotest.(check bool) "find miss" true (find 7 t = None)

let test_splay_insert_to_root () =
  let t =
    List.fold_left
      (fun t k -> Splay.insert k k ~combine:(fun a _ -> a) t)
      Splay.empty [ 10; 2; 7; 14; 1 ]
  in
  Alcotest.(check bool) "last insert at root" true (at_root 1 t);
  Alcotest.(check (option int)) "with its value" (Some 1)
    (Option.map fst (find 1 t))

let test_splay_combine () =
  let t = Splay.empty in
  let t = Splay.insert 4 [ 1 ] ~combine:( @ ) t in
  let t = Splay.insert 4 [ 2 ] ~combine:( @ ) t in
  match find 4 t with
  | Some (v, _) -> Alcotest.(check (list int)) "stacked" [ 2; 1 ] v
  | None -> Alcotest.fail "4 missing"

let test_splay_find_ge () =
  let t =
    List.fold_left
      (fun t k -> Splay.insert k (string_of_int k) ~combine:( ^ ) t)
      Splay.empty [ 10; 20; 30; 40 ]
  in
  (match Splay.find_ge 25 t with
  | Some (k, v, t') ->
      Alcotest.(check int) "smallest >= 25" 30 k;
      Alcotest.(check string) "its value" "30" v;
      Alcotest.(check bool) "splayed to root" true (at_root 30 t')
  | None -> Alcotest.fail "find_ge 25 failed");
  (match Splay.find_ge 10 t with
  | Some (k, _, _) -> Alcotest.(check int) "exact hit" 10 k
  | None -> Alcotest.fail "find_ge 10 failed");
  Alcotest.(check bool) "beyond max" true (Splay.find_ge 41 t = None)

let test_splay_remove () =
  let t =
    List.fold_left
      (fun t k -> Splay.insert k k ~combine:(fun a _ -> a) t)
      Splay.empty [ 5; 1; 9; 3 ]
  in
  let t = remove 5 t in
  Alcotest.(check int) "size after remove" 3 (size t);
  Alcotest.(check bool) "removed" true (find 5 t = None);
  Alcotest.(check bool) "others intact" true (find 3 t <> None);
  Alcotest.(check bool) "invariant" true (Splay.check_invariant t);
  let t = remove 42 t in
  Alcotest.(check int) "remove absent is noop" 3 (size t)

let test_splay_remove_root () =
  let t = Splay.insert 2 "x" ~combine:( ^ ) Splay.empty in
  let t = Splay.remove_root t in
  Alcotest.(check int) "now empty" 0 (size t);
  Alcotest.check_raises "remove_root on empty"
    (Invalid_argument "Splay.remove_root: empty tree") (fun () ->
      ignore (Splay.remove_root Splay.empty))

let test_splay_depth () =
  let t =
    List.fold_left
      (fun t k -> Splay.insert k k ~combine:(fun a _ -> a) t)
      Splay.empty [ 50; 30; 70 ]
  in
  (* 30 was inserted second-to-last, 70 last: 70 is the root. *)
  Alcotest.(check int) "root depth 1" 1 (Splay.depth_of 70 t);
  Alcotest.(check bool) "deeper nodes" true (Splay.depth_of 50 t >= 2);
  Alcotest.(check int) "empty tree" 0 (Splay.depth_of 1 Splay.empty)

(* Model-based property tests: a splay tree of int lists vs Map. *)

module IM = Map.Make (Int)

type op = Ins of int | Rem of int | FindGe of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Ins k) (int_range 0 50));
        (2, map (fun k -> Rem k) (int_range 0 50));
        (2, map (fun k -> FindGe k) (int_range 0 60));
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 200) op_gen)
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Ins k -> Printf.sprintf "I%d" k
             | Rem k -> Printf.sprintf "R%d" k
             | FindGe k -> Printf.sprintf "G%d" k)
           ops))

let run_model ops =
  let step (tree, model, ok) op =
    match op with
    | Ins k ->
        let tree = Splay.insert k [ k ] ~combine:( @ ) tree in
        let model =
          IM.update k
            (function None -> Some [ k ] | Some old -> Some ([ k ] @ old))
            model
        in
        (tree, model, ok && Splay.check_invariant tree)
    | Rem k -> (remove k tree, IM.remove k model, ok)
    | FindGe k ->
        let expected = IM.find_first_opt (fun x -> x >= k) model in
        let got = Splay.find_ge k tree in
        let agree =
          match (expected, got) with
          | None, None -> true
          | Some (mk, mv), Some (sk, sv, _) -> mk = sk && mv = sv
          | _ -> false
        in
        (tree, model, ok && agree)
  in
  let tree, model, ok = List.fold_left step (Splay.empty, IM.empty, true) ops in
  ok
  && Splay.to_sorted_list tree = IM.bindings model
  && Splay.check_invariant tree

let prop_splay_vs_model =
  QCheck.Test.make ~name:"splay agrees with Map model" ~count:300 arb_ops
    run_model

(* --- Allocator ------------------------------------------------------------ *)

let test_alloc_roundtrip () =
  let a = Alloc.create () in
  let b = Alloc.malloc a ~size:64 in
  Alcotest.(check int) "size" 64 b.Alloc.size;
  Alloc.write_data b 42;
  Alcotest.(check int) "data" 42 (Alloc.read_data b);
  Alloc.free a b;
  let st = Alloc.stats a in
  Alcotest.(check int) "allocs" 1 st.Alloc.allocs;
  Alcotest.(check int) "frees" 1 st.Alloc.frees;
  Alcotest.(check int) "fresh" 1 st.Alloc.fresh_blocks

let test_alloc_lifo_recycling () =
  let a = Alloc.create () in
  let b1 = Alloc.malloc a ~size:64 in
  let b2 = Alloc.malloc a ~size:64 in
  Alloc.free a b1;
  Alloc.free a b2;
  (* Most recently freed block comes back first (splay-to-root + LIFO). *)
  let b3 = Alloc.malloc a ~size:64 in
  Alcotest.(check int) "LIFO recycling" b2.Alloc.bid b3.Alloc.bid;
  let b4 = Alloc.malloc a ~size:64 in
  Alcotest.(check int) "then the older one" b1.Alloc.bid b4.Alloc.bid;
  let st = Alloc.stats a in
  Alcotest.(check int) "recycled" 2 st.Alloc.recycled

let test_alloc_best_fit () =
  let a = Alloc.create () in
  let small = Alloc.malloc a ~size:32 in
  let mid = Alloc.malloc a ~size:64 in
  let big = Alloc.malloc a ~size:128 in
  Alloc.free a small;
  Alloc.free a mid;
  Alloc.free a big;
  (* Request 48: the 64-byte block is the smallest that fits. *)
  let b = Alloc.malloc a ~size:48 in
  Alcotest.(check int) "smallest fitting block" mid.Alloc.bid b.Alloc.bid;
  (* Request 200: nothing fits; heap grows. *)
  let b2 = Alloc.malloc a ~size:200 in
  Alcotest.(check bool) "fresh block" true
    (b2.Alloc.bid <> small.Alloc.bid
    && b2.Alloc.bid <> big.Alloc.bid
    && b2.Alloc.size = 200)

let test_alloc_double_free () =
  let a = Alloc.create () in
  let b = Alloc.malloc a ~size:64 in
  Alloc.free a b;
  let raised =
    try
      Alloc.free a b;
      false
    with Alloc.Double_free _ -> true
  in
  Alcotest.(check bool) "double free detected" true raised

let test_alloc_invalid_size () =
  let a = Alloc.create () in
  let raised =
    try
      ignore (Alloc.malloc a ~size:0);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "size 0 rejected" true raised

let prop_alloc_balance =
  (* Random malloc/free interleavings: no leaked or duplicated blocks;
     every allocation returns a block not currently live. *)
  QCheck.Test.make ~name:"allocator balance" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 100) (QCheck.int_range 0 2))
    (fun choices ->
      let a = Alloc.create () in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun c ->
          if c < 2 then begin
            let size = 32 * (1 + c) in
            let b = Alloc.malloc a ~size in
            if Hashtbl.mem live b.Alloc.bid then ok := false;
            Hashtbl.add live b.Alloc.bid b
          end
          else
            match Hashtbl.fold (fun _ b acc -> b :: acc) live [] with
            | [] -> ()
            | b :: _ ->
                Hashtbl.remove live b.Alloc.bid;
                Alloc.free a b)
        choices;
      let st = Alloc.stats a in
      !ok
      && st.Alloc.allocs = st.Alloc.frees + Hashtbl.length live
      && st.Alloc.recycled + st.Alloc.fresh_blocks = st.Alloc.allocs)

(* --- KV store -------------------------------------------------------------- *)

let test_kv_get_set () =
  let t = Kv.create ~n_buckets:16 () in
  Alcotest.(check (option int)) "miss" None (Kv.get t ~tid:0 1);
  Kv.set t ~tid:0 1 100;
  Alcotest.(check (option int)) "hit" (Some 100) (Kv.get t ~tid:0 1);
  Kv.set t ~tid:0 1 200;
  Alcotest.(check (option int)) "update" (Some 200) (Kv.get t ~tid:0 1);
  Alcotest.(check int) "one item" 1 (Kv.n_items t)

let test_kv_collisions () =
  (* One bucket: every key collides; chaining must still work. *)
  let t = Kv.create ~n_buckets:1 () in
  for k = 0 to 49 do
    Kv.set t ~tid:0 k (k * 10)
  done;
  let ok = ref true in
  for k = 0 to 49 do
    if Kv.get t ~tid:0 k <> Some (k * 10) then ok := false
  done;
  Alcotest.(check bool) "all retrievable" true !ok;
  Alcotest.(check int) "50 items" 50 (Kv.n_items t)

let test_kv_populate () =
  let t = Kv.create ~n_buckets:64 () in
  Kv.populate t ~n_keys:100;
  Alcotest.(check int) "populated" 100 (Kv.n_items t);
  Alcotest.(check (option int)) "initial value" (Some 42) (Kv.get t ~tid:0 42);
  Alcotest.(check bool) "present" true (Kv.get t ~tid:0 99 <> None);
  Alcotest.(check bool) "absent" true (Kv.get t ~tid:0 100 = None)

let prop_kv_vs_hashtbl =
  QCheck.Test.make ~name:"kvstore agrees with Hashtbl" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 0 200)
        (pair (int_range 0 30) (option (int_range 0 1000))))
    (fun ops ->
      let t = Kv.create ~n_buckets:8 () in
      let h = Hashtbl.create 8 in
      List.for_all
        (fun (k, vo) ->
          match vo with
          | Some v ->
              Kv.set t ~tid:0 k v;
              Hashtbl.replace h k v;
              true
          | None -> Kv.get t ~tid:0 k = Hashtbl.find_opt h k)
        ops)

(* --- Workload generator ----------------------------------------------------- *)

let test_workload_mix_ratio () =
  let w = W.make ~seed:7 ~n_keys:1000 ~mix:W.write_heavy in
  let sets = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match W.next w with W.Set _ -> incr sets | W.Get _ -> ()
  done;
  let ratio = float_of_int !sets /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "write-heavy ratio ~0.9 (got %.3f)" ratio)
    true
    (ratio > 0.88 && ratio < 0.92)

let test_workload_keys_in_range () =
  let w = W.make ~seed:3 ~n_keys:50 ~mix:W.mixed in
  let ok = ref true in
  for _ = 1 to 5_000 do
    let k = match W.next w with W.Get k -> k | W.Set (k, _) -> k in
    if k < 0 || k >= 50 then ok := false
  done;
  Alcotest.(check bool) "keys in range" true !ok

let test_workload_bimodal_alternates () =
  let w =
    W.make_bimodal ~seed:11 ~n_keys:100 ~period:1_000 ~mix_a:W.read_heavy
      ~mix_b:W.write_heavy
  in
  let sets_in n =
    let c = ref 0 in
    for _ = 1 to n do
      match W.next w with W.Set _ -> incr c | W.Get _ -> ()
    done;
    !c
  in
  let phase_a = sets_in 1_000 in
  let phase_b = sets_in 1_000 in
  let phase_a' = sets_in 1_000 in
  Alcotest.(check bool)
    (Printf.sprintf "read phase ~10%% sets (%d)" phase_a)
    true
    (phase_a < 160);
  Alcotest.(check bool)
    (Printf.sprintf "write phase ~90%% sets (%d)" phase_b)
    true
    (phase_b > 840);
  Alcotest.(check bool)
    (Printf.sprintf "back to read phase (%d)" phase_a')
    true
    (phase_a' < 160)

let test_workload_bimodal_validation () =
  let raised =
    try
      ignore
        (W.make_bimodal ~seed:1 ~n_keys:10 ~period:0 ~mix_a:W.mixed
           ~mix_b:W.mixed);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "period 0 rejected" true raised

let test_workload_deterministic () =
  let trace seed =
    let w = W.make ~seed ~n_keys:100 ~mix:W.read_heavy in
    List.init 100 (fun _ -> W.next w)
  in
  Alcotest.(check bool) "same seed same ops" true (trace 5 = trace 5);
  Alcotest.(check bool) "diff seed diff ops" true (trace 5 <> trace 6)

(* --- Charged (simulated) integration -------------------------------------- *)

module Sm = Numasim.Sim_mem
module SAlloc = Apps.Allocator.Make (Sm)
module SKv = Apps.Kvstore.Make (Sm)
open Numa_base

let test_alloc_charged_in_sim () =
  let a = SAlloc.create () in
  let r =
    Numasim.Engine.run ~topology:Topology.small ~n_threads:1
      (fun ~tid:_ ~cluster:_ ->
        let b = SAlloc.malloc a ~size:64 in
        SAlloc.write_data b 1;
        SAlloc.free a b;
        let b2 = SAlloc.malloc a ~size:64 in
        SAlloc.free a b2)
  in
  Alcotest.(check bool)
    "simulated time charged" true
    (r.Numasim.Engine.end_time > 0);
  Alcotest.(check bool)
    "memory accesses recorded" true
    (r.Numasim.Engine.profile.Numa_trace.Profile.totals.accesses > 4)

let test_kv_charged_in_sim () =
  let t = SKv.create ~n_buckets:8 () in
  SKv.populate t ~n_keys:10;
  let r =
    Numasim.Engine.run ~topology:Topology.small ~n_threads:2
      (fun ~tid ~cluster:_ ->
        if tid = 0 then SKv.set t ~tid:0 3 33
        else begin
          Sm.pause 10_000;
          ignore (SKv.get t ~tid:0 3)
        end)
  in
  (* Thread 1 reads the item line last written by thread 0 on another
     cluster: at least one coherence miss. *)
  Alcotest.(check bool)
    "cross-cluster item traffic" true
    (r.Numasim.Engine.profile.Numa_trace.Profile.totals.coherence_misses >= 1)

(* A set-heavy body that also inserts an absent key per thread and
   spaces its operations past [lru_resolution], so LRU stamps, bucket
   tags and stats counters all move. *)
let kv_set_heavy t =
  Numasim.Engine.run ~topology:Topology.small ~n_threads:2
    (fun ~tid ~cluster:_ ->
      for i = 0 to 19 do
        let k = ((i * 7) + tid) mod 32 in
        if i mod 4 = 3 then ignore (SKv.get t ~tid k)
        else SKv.set t ~tid k (1_000 + i);
        Sm.pause 150_000
      done;
      SKv.set t ~tid (100 + tid) 5)

(* A store populated with keys [0..31], and what its cells hold, read
   in a run (reads write nothing). *)
let kv_store ?max_threads () =
  let t = SKv.create ?max_threads ~n_buckets:8 () in
  SKv.populate t ~n_keys:32;
  t

let kv_values t =
  let out = ref [] in
  ignore
    (Numasim.Engine.run ~topology:Topology.small ~n_threads:1
       (fun ~tid:_ ~cluster:_ -> out := List.map Sm.read (SKv.cells t)));
  !out

let test_kv_reset_exact () =
  let t = kv_store () in
  let r1 = kv_set_heavy t in
  Alcotest.(check int) "two inserts" 34 (SKv.n_items t);
  SKv.reset t;
  Alcotest.(check int) "n_items restored" 32 (SKv.n_items t);
  (* Every value is its key again, every LRU stamp 0, the inserts are
     gone: cell for cell, the populated store. *)
  Alcotest.(check (list int)) "cells as populated" (kv_values (kv_store ()))
    (kv_values t);
  (* So the same body costs it exactly what it cost the fresh store. *)
  let r2 = kv_set_heavy t in
  let open Numasim.Engine in
  Alcotest.(check int) "end time" r1.end_time r2.end_time;
  Alcotest.(check int) "events" r1.events r2.events;
  Alcotest.(check bool) "coherence counters" true (r1.profile.totals = r2.profile.totals)

(* [reset] re-initialises only the cells the runs wrote: a store used by
   two runs (sets, LRU-touching gets, inserts, every stats counter) and
   then reset must read, cell by cell and in chain order, exactly like a
   freshly populated one. *)
let test_kv_reset_equals_fresh () =
  let used = kv_store ~max_threads:4 () in
  ignore (kv_set_heavy used);
  SKv.reset used;
  ignore (kv_set_heavy used);
  ignore
    (Numasim.Engine.run ~topology:Topology.small ~n_threads:4
       (fun ~tid ~cluster:_ -> SKv.set used ~tid (200 + tid) tid));
  SKv.reset used;
  let fresh = kv_values (kv_store ~max_threads:4 ()) in
  Alcotest.(check int) "as many cells" (List.length fresh)
    (List.length (kv_values used));
  Alcotest.(check (list int)) "every cell as fresh" fresh (kv_values used)

let suite =
  [
    ( "splay",
      [
        Alcotest.test_case "basic" `Quick test_splay_basic;
        Alcotest.test_case "insert to root" `Quick test_splay_insert_to_root;
        Alcotest.test_case "combine" `Quick test_splay_combine;
        Alcotest.test_case "find_ge" `Quick test_splay_find_ge;
        Alcotest.test_case "remove" `Quick test_splay_remove;
        Alcotest.test_case "remove_root" `Quick test_splay_remove_root;
        Alcotest.test_case "depth_of" `Quick test_splay_depth;
        QCheck_alcotest.to_alcotest prop_splay_vs_model;
      ] );
    ( "allocator",
      [
        Alcotest.test_case "roundtrip" `Quick test_alloc_roundtrip;
        Alcotest.test_case "LIFO recycling" `Quick test_alloc_lifo_recycling;
        Alcotest.test_case "best fit" `Quick test_alloc_best_fit;
        Alcotest.test_case "double free" `Quick test_alloc_double_free;
        Alcotest.test_case "invalid size" `Quick test_alloc_invalid_size;
        QCheck_alcotest.to_alcotest prop_alloc_balance;
      ] );
    ( "kvstore",
      [
        Alcotest.test_case "get/set" `Quick test_kv_get_set;
        Alcotest.test_case "collisions" `Quick test_kv_collisions;
        Alcotest.test_case "populate" `Quick test_kv_populate;
        QCheck_alcotest.to_alcotest prop_kv_vs_hashtbl;
      ] );
    ( "workload",
      [
        Alcotest.test_case "mix ratio" `Quick test_workload_mix_ratio;
        Alcotest.test_case "key range" `Quick test_workload_keys_in_range;
        Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "bimodal alternates" `Quick
          test_workload_bimodal_alternates;
        Alcotest.test_case "bimodal validation" `Quick
          test_workload_bimodal_validation;
      ] );
    ( "sim_integration",
      [
        Alcotest.test_case "allocator charged" `Quick test_alloc_charged_in_sim;
        Alcotest.test_case "kvstore charged" `Quick test_kv_charged_in_sim;
        Alcotest.test_case "kvstore reset exact" `Quick test_kv_reset_exact;
        Alcotest.test_case "kvstore reset = fresh store" `Quick
          test_kv_reset_equals_fresh;
      ] );
  ]

let () = Alcotest.run "apps" suite
