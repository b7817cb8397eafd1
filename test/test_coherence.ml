(* Precise unit tests of the coherence state machine and the interconnect
   queueing model — these pin down the latencies every experiment is
   built on. *)

module C = Numasim.Coherence
module I = Numasim.Interconnect
open Numa_base

let lat = Latency.t5440

(* The single-level reference machine: every cross-domain pair costs the
   flat [remote_transfer], exactly the historical model. *)
let topo = Topology.t5440

let fresh () = (C.make_line (), C.fresh_stats ())

let access ?(now = 0) ?(epoch = 1) st line ~cluster ~thread kind =
  C.access st topo line ~now ~epoch ~domain:cluster ~thread kind

(* --- read transitions ----------------------------------------------------- *)

let test_cold_read_hits_memory () =
  let line, st = fresh () in
  let l = access st line ~cluster:0 ~thread:0 C.Read in
  Alcotest.(check int) "memory latency" lat.Latency.mem_access l;
  Alcotest.(check int) "memory miss counted" 1 st.C.memory_misses;
  Alcotest.(check int) "no coherence miss" 0 st.C.coherence_misses

let test_repeat_read_same_thread_is_l1 () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Read);
  let l = access st line ~cluster:0 ~thread:0 C.Read in
  Alcotest.(check int) "l1 hit" lat.Latency.l1_hit l;
  Alcotest.(check int) "l1 counted" 1 st.C.l1_hits

let test_read_same_cluster_other_thread_is_local () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Read);
  let l = access st line ~cluster:0 ~thread:1 C.Read in
  Alcotest.(check int) "local L2 hit" lat.Latency.local_hit l;
  Alcotest.(check int) "local counted" 1 st.C.local_hits

let test_read_of_remote_modified_is_transfer () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Write);
  let l = access st line ~cluster:1 ~thread:9 C.Read in
  Alcotest.(check int) "remote transfer" lat.Latency.remote_transfer l;
  Alcotest.(check int) "coherence miss counted" 1 st.C.coherence_misses;
  Alcotest.(check int) "crossed interconnect" 1 st.C.remote_txns;
  (* The owner was demoted: both clusters now read locally. *)
  let l0 = access st line ~cluster:0 ~thread:2 C.Read in
  let l1 = access st line ~cluster:1 ~thread:3 C.Read in
  Alcotest.(check int) "old owner still shares" lat.Latency.local_hit l0;
  Alcotest.(check int) "new reader shares" lat.Latency.local_hit l1

let test_read_from_remote_sharer () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Read);
  let l = access st line ~cluster:2 ~thread:7 C.Read in
  Alcotest.(check int) "fetch from sharer" lat.Latency.remote_transfer l;
  Alcotest.(check int) "coherence miss" 1 st.C.coherence_misses

(* --- write transitions ------------------------------------------------ *)

let test_write_owned_is_cheap () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Write);
  let l = access st line ~cluster:0 ~thread:0 C.Write in
  Alcotest.(check int) "l1 write" lat.Latency.l1_hit l;
  ignore st

let test_write_upgrades_solo_share () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Read);
  let l = access st line ~cluster:0 ~thread:0 C.Write in
  Alcotest.(check int) "silent upgrade" lat.Latency.upgrade_local l;
  Alcotest.(check int) "no invalidation" 0 st.C.invalidations

(* Note: cross-cluster transfers occupy the line ([busy_until]), so these
   tests space their accesses out in time to observe the bare latencies;
   test_transfers_queue_on_line covers the queueing itself. *)

let test_write_invalidates_remote_sharers () =
  let line, st = fresh () in
  ignore (access st ~now:0 line ~cluster:0 ~thread:0 C.Read);
  ignore (access st ~now:1_000 line ~cluster:1 ~thread:5 C.Read);
  let l = access st ~now:2_000 line ~cluster:0 ~thread:0 C.Write in
  Alcotest.(check int) "invalidation round trip" lat.Latency.remote_transfer l;
  Alcotest.(check int) "invalidation counted" 1 st.C.invalidations;
  (* Remote reader must now re-fetch. *)
  let l1 = access st ~now:3_000 line ~cluster:1 ~thread:5 C.Read in
  Alcotest.(check int) "re-fetch after invalidate" lat.Latency.remote_transfer
    l1

let test_write_steals_remote_modified () =
  let line, st = fresh () in
  ignore (access st ~now:0 line ~cluster:0 ~thread:0 C.Write);
  let l = access st ~now:1_000 line ~cluster:3 ~thread:11 C.Write in
  Alcotest.(check int) "ownership transfer" lat.Latency.remote_transfer l;
  Alcotest.(check int) "coherence miss" 1 st.C.coherence_misses;
  (* Old owner's next read misses. *)
  let l0 = access st ~now:2_000 line ~cluster:0 ~thread:0 C.Read in
  Alcotest.(check int) "old owner invalidated" lat.Latency.remote_transfer l0

let test_rmw_adds_atomic_cost () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Write);
  let l = access st line ~cluster:0 ~thread:0 C.Rmw in
  Alcotest.(check int) "cas = l1 + atomic"
    (lat.Latency.l1_hit + lat.Latency.atomic_extra)
    l;
  ignore st

(* --- line occupancy / epoch -------------------------------------------- *)

let test_transfers_queue_on_line () =
  let line, st = fresh () in
  ignore (access st line ~cluster:0 ~thread:0 C.Write);
  (* Two remote readers at the same instant: the second queues behind the
     first transfer. *)
  let l1 = access st ~now:1000 line ~cluster:1 ~thread:1 C.Read in
  let l2 = access st ~now:1000 line ~cluster:2 ~thread:2 C.Read in
  Alcotest.(check int) "first pays one transfer" lat.Latency.remote_transfer l1;
  Alcotest.(check int) "second queues"
    (2 * lat.Latency.remote_transfer)
    l2

let test_epoch_resets_state () =
  let line, st = fresh () in
  ignore (access st ~epoch:1 line ~cluster:0 ~thread:0 C.Write);
  (* New run: the line starts cold again. *)
  let l = access st ~epoch:2 line ~cluster:0 ~thread:0 C.Read in
  Alcotest.(check int) "cold after epoch change" lat.Latency.mem_access l

let test_access_total_counted () =
  let line, st = fresh () in
  for i = 0 to 9 do
    ignore (access st line ~cluster:(i mod 2) ~thread:i C.Read)
  done;
  Alcotest.(check int) "all accesses counted" 10 st.C.accesses

(* --- transition table ------------------------------------------------------
   One row per [C.transition]; [row] is an exhaustive match, so a new
   constructor does not compile until it gets a row here. Each row sets a
   line up (accesses by (domain, thread, kind), spaced out so nothing
   queues; [stale] = set up in an earlier epoch), then pins what
   [classify] answers for the probe access and what charging it does. *)

type row = {
  setup : (int * int * C.kind) list;
  stale : bool;
  probe : int * int * C.kind;  (** domain, thread, kind *)
  latency : int;
  counts : int * int * int * int;
      (** l1 hits, local hits, coherence misses, memory misses *)
  crosses : bool;  (** a remote transaction *)
  invalidates : bool;
  after : int * int * int;  (** owner, sharers, last_thread *)
}

let xfer = lat.Latency.remote_transfer

let row : C.transition -> row = function
  | C.L1_hit ->
      { setup = [ (0, 0, C.Read) ]; stale = false; probe = (0, 0, C.Read);
        latency = lat.Latency.l1_hit; counts = (1, 0, 0, 0);
        crosses = false; invalidates = false; after = (-1, 0b1, 0) }
  | C.Local_hit ->
      { setup = [ (0, 0, C.Write) ]; stale = false; probe = (0, 1, C.Write);
        latency = lat.Latency.local_hit; counts = (0, 1, 0, 0);
        crosses = false; invalidates = false; after = (0, 0, 1) }
  | C.Upgrade ->
      { setup = [ (0, 0, C.Read) ]; stale = false; probe = (0, 1, C.Write);
        latency = lat.Latency.upgrade_local; counts = (0, 1, 0, 0);
        crosses = false; invalidates = false; after = (0, 0, 1) }
  | C.Fetch_modified ->
      { setup = [ (1, 4, C.Write) ]; stale = false; probe = (0, 0, C.Read);
        latency = xfer; counts = (0, 0, 1, 0);
        crosses = true; invalidates = false; after = (-1, 0b11, 0) }
  | C.Fetch_shared ->
      { setup = [ (1, 4, C.Read) ]; stale = false; probe = (0, 0, C.Read);
        latency = xfer; counts = (0, 0, 1, 0);
        crosses = true; invalidates = false; after = (-1, 0b11, 0) }
  | C.Invalidate ->
      { setup = [ (0, 0, C.Read); (1, 4, C.Read) ]; stale = false;
        probe = (0, 0, C.Write); latency = xfer; counts = (0, 0, 0, 0);
        crosses = true; invalidates = true; after = (0, 0, 0) }
  | C.Steal ->
      { setup = [ (1, 4, C.Write) ]; stale = false; probe = (0, 0, C.Rmw);
        latency = xfer + lat.Latency.atomic_extra; counts = (0, 0, 1, 0);
        crosses = true; invalidates = false; after = (0, 0, 0) }
  | C.Miss_invalidate ->
      { setup = [ (1, 4, C.Read); (2, 8, C.Read) ]; stale = false;
        probe = (0, 0, C.Write); latency = xfer; counts = (0, 0, 1, 0);
        crosses = true; invalidates = true; after = (0, 0, 0) }
  | C.Memory ->
      (* owned by the prober last epoch: stale state reads as Invalid *)
      { setup = [ (0, 0, C.Write) ]; stale = true; probe = (0, 0, C.Read);
        latency = lat.Latency.mem_access; counts = (0, 0, 0, 1);
        crosses = false; invalidates = false; after = (-1, 0b1, 0) }

let transitions =
  C.[ L1_hit; Local_hit; Upgrade; Fetch_modified; Fetch_shared; Invalidate;
      Steal; Miss_invalidate; Memory ]

let test_transition_table () =
  List.iteri
    (fun i tr ->
      let r = row tr in
      let name what = Printf.sprintf "row %d: %s" i what in
      let line, st = fresh () in
      List.iteri
        (fun k (domain, thread, kind) ->
          ignore
            (C.access st topo line ~now:(k * 1_000)
               ~epoch:(if r.stale then 0 else 1) ~domain ~thread kind))
        r.setup;
      let domain, thread, kind = r.probe in
      let snapshot () =
        C.(line.owner, line.sharers, line.last_thread, line.busy_until)
      in
      let before = snapshot () in
      let got = C.classify line ~epoch:1 ~domain ~thread kind in
      Alcotest.(check bool) (name "classify") true (got = tr);
      Alcotest.(check bool) (name "classify is pure") true (snapshot () = before);
      let hit = C.hit_ns topo tr in
      Alcotest.(check bool)
        (name "hit_ns >= 0 exactly for same-domain hits")
        ((not r.crosses) && tr <> C.Memory)
        (hit >= 0);
      let module P = Numa_trace.Profile in
      let c0 = C.export st in
      let l =
        C.charge st topo line ~now:100_000 ~epoch:1 ~domain ~thread kind got
      in
      let c1 = C.export st in
      Alcotest.(check int) (name "latency") r.latency l;
      if hit >= 0 then
        Alcotest.(check int) (name "latency = hit_ns (+ atomic extra)")
          (if kind = C.Rmw then hit + lat.Latency.atomic_extra else hit)
          l;
      Alcotest.(check (list int)) (name "counter deltas")
        (let l1, local, coh, mem = r.counts in
         [ 1; l1; local; coh; mem ])
        [ c1.P.accesses - c0.P.accesses; c1.P.l1_hits - c0.P.l1_hits;
          c1.P.local_hits - c0.P.local_hits;
          c1.P.coherence_misses - c0.P.coherence_misses;
          c1.P.memory_misses - c0.P.memory_misses ];
      Alcotest.(check bool) (name "crosses") r.crosses
        (c1.P.remote_txns > c0.P.remote_txns);
      Alcotest.(check bool) (name "invalidates") r.invalidates
        (c1.P.invalidations > c0.P.invalidations);
      let owner, sharers, last = r.after in
      Alcotest.(check (list int)) (name "owner, sharers, last_thread")
        [ owner; sharers; last ]
        C.[ line.owner; line.sharers; line.last_thread ])
    transitions

(* --- interconnect ------------------------------------------------------- *)

let test_interconnect_free_channel_no_delay () =
  let i = I.create topo in
  Alcotest.(check int) "first txn free" 0 (I.acquire i ~level:0 ~now:100)

let test_interconnect_queues_when_saturated () =
  let i = I.create topo in
  let ch = lat.Latency.interconnect_channels in
  (* Fill every channel at t=0; the next acquisition must wait. *)
  for _ = 1 to ch do
    ignore (I.acquire i ~level:0 ~now:0)
  done;
  let d = I.acquire i ~level:0 ~now:0 in
  Alcotest.(check int) "queued behind occupancy"
    lat.Latency.interconnect_occupancy d

let test_interconnect_drains () =
  let i = I.create topo in
  for _ = 1 to 10 do
    ignore (I.acquire i ~level:0 ~now:0)
  done;
  (* Far in the future all channels are free again. *)
  Alcotest.(check int) "drained" 0 (I.acquire i ~level:0 ~now:1_000_000)

let test_interconnect_reset () =
  let i = I.create topo in
  for _ = 1 to 10 do
    ignore (I.acquire i ~level:0 ~now:0)
  done;
  I.reset i;
  Alcotest.(check int) "reset clears queue" 0 (I.acquire i ~level:0 ~now:0)

let test_interconnect_zero_occupancy () =
  let i =
    I.create (Topology.make ~clusters:4 ~threads_per_cluster:4 Latency.uniform)
  in
  for _ = 1 to 100 do
    Alcotest.(check int) "uma never queues" 0 (I.acquire i ~level:0 ~now:0)
  done

(* Multi-level distances: on the rack preset a socket-mate transfer costs
   the inner tier, a rack-mate the outer tier, and invalidation pays the
   round trip to the furthest victim. *)
let test_hier_read_costs_by_level () =
  let tr = Topology.rack in
  let inner = Topology.xfer_cost tr 0 1 in
  let outer = Topology.xfer_cost tr 0 2 in
  Alcotest.(check bool) "tiers differ" true (inner < outer);
  let line, st = fresh () in
  ignore (C.access st tr line ~now:0 ~epoch:1 ~domain:0 ~thread:0 C.Write);
  let l1 =
    C.access st tr line ~now:10_000 ~epoch:1 ~domain:1 ~thread:1 C.Read
  in
  Alcotest.(check int) "socket-mate pays inner tier" inner l1;
  Alcotest.(check int) "crossing level inner" 1 st.C.last_xlevel;
  (* domain 2 is in the other rack: nearest sharer is 0 or 1, both at the
     outer tier. *)
  let l2 =
    C.access st tr line ~now:20_000 ~epoch:1 ~domain:2 ~thread:2 C.Read
  in
  Alcotest.(check int) "cross-rack pays outer tier" outer l2;
  Alcotest.(check int) "crossing level outer" 0 st.C.last_xlevel

let test_hier_invalidate_pays_furthest () =
  let tr = Topology.rack in
  let outer = Topology.xfer_cost tr 0 2 in
  let line, st = fresh () in
  (* Sharers in both racks; a write from domain 0 must reach domain 2. *)
  ignore (C.access st tr line ~now:0 ~epoch:1 ~domain:0 ~thread:0 C.Read);
  ignore (C.access st tr line ~now:10_000 ~epoch:1 ~domain:1 ~thread:1 C.Read);
  ignore (C.access st tr line ~now:20_000 ~epoch:1 ~domain:2 ~thread:2 C.Read);
  let l =
    C.access st tr line ~now:30_000 ~epoch:1 ~domain:0 ~thread:0 C.Write
  in
  Alcotest.(check int) "round trip to furthest victim" outer l;
  Alcotest.(check int) "crossing level outer" 0 st.C.last_xlevel

(* Properties: latency is always one of the model's constants (plus
   queueing), and counters never decrease. *)
let prop_latency_positive =
  QCheck.Test.make ~name:"access latency positive and counters monotonic"
    ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 50)
        (triple (int_range 0 3) (int_range 0 7) (int_range 0 2)))
    (fun ops ->
      let line, st = fresh () in
      let prev = ref 0 in
      let now = ref 0 in
      List.for_all
        (fun (cluster, thread, k) ->
          let kind = match k with 0 -> C.Read | 1 -> C.Write | _ -> C.Rmw in
          let l = access st ~now:!now line ~cluster ~thread kind in
          now := !now + l;
          let total = st.C.accesses in
          let ok = l > 0 && total = !prev + 1 in
          prev := total;
          ok)
        ops)

let suite =
  [
    ( "read",
      [
        Alcotest.test_case "cold read" `Quick test_cold_read_hits_memory;
        Alcotest.test_case "l1 repeat" `Quick test_repeat_read_same_thread_is_l1;
        Alcotest.test_case "local sibling" `Quick
          test_read_same_cluster_other_thread_is_local;
        Alcotest.test_case "remote modified" `Quick
          test_read_of_remote_modified_is_transfer;
        Alcotest.test_case "remote sharer" `Quick test_read_from_remote_sharer;
      ] );
    ( "write",
      [
        Alcotest.test_case "owned write" `Quick test_write_owned_is_cheap;
        Alcotest.test_case "solo upgrade" `Quick test_write_upgrades_solo_share;
        Alcotest.test_case "invalidate sharers" `Quick
          test_write_invalidates_remote_sharers;
        Alcotest.test_case "steal modified" `Quick
          test_write_steals_remote_modified;
        Alcotest.test_case "rmw extra" `Quick test_rmw_adds_atomic_cost;
      ] );
    ( "line",
      [
        Alcotest.test_case "transfers queue" `Quick test_transfers_queue_on_line;
        Alcotest.test_case "epoch reset" `Quick test_epoch_resets_state;
        Alcotest.test_case "totals" `Quick test_access_total_counted;
        Alcotest.test_case "transition table" `Quick test_transition_table;
        QCheck_alcotest.to_alcotest prop_latency_positive;
      ] );
    ( "interconnect",
      [
        Alcotest.test_case "free channel" `Quick
          test_interconnect_free_channel_no_delay;
        Alcotest.test_case "saturation queues" `Quick
          test_interconnect_queues_when_saturated;
        Alcotest.test_case "drains" `Quick test_interconnect_drains;
        Alcotest.test_case "reset" `Quick test_interconnect_reset;
        Alcotest.test_case "uma" `Quick test_interconnect_zero_occupancy;
      ] );
    ( "hierarchy",
      [
        Alcotest.test_case "read costs by level" `Quick
          test_hier_read_costs_by_level;
        Alcotest.test_case "invalidate pays furthest" `Quick
          test_hier_invalidate_pays_furthest;
      ] );
  ]

let () = Alcotest.run "coherence" suite
