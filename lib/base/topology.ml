type level = {
  l_name : string;
  l_arity : int;
  l_transfer : int;
  l_channels : int;
  l_occupancy : int;
}

type t = {
  name : string;
  levels : level array;
  clusters : int;
  threads_per_cluster : int;
  latency : Latency.t;
  xfer : int array;
  xlevel : int array;
}

let level ?(channels = 1) ?(occupancy = 0) ~name ~arity ~transfer () =
  if arity < 1 then invalid_arg "Topology.level: arity < 1";
  if transfer < 0 then invalid_arg "Topology.level: transfer < 0";
  if channels < 1 then invalid_arg "Topology.level: channels < 1";
  if occupancy < 0 then invalid_arg "Topology.level: occupancy < 0";
  {
    l_name = name;
    l_arity = arity;
    l_transfer = transfer;
    l_channels = channels;
    l_occupancy = occupancy;
  }

(* The sharer set in the coherence model is a bitmask over clusters in
   one OCaml int, so a machine cannot have more than 62 of them. *)
let max_clusters = 62

(* Crossing level of two distinct leaves: the outermost level at which
   their ancestor paths diverge. [strides.(i)] is the number of leaves
   under one level-[i] node. *)
let crossing_level levels a b =
  let k = Array.length levels in
  let stride = ref 1 in
  let strides = Array.make k 1 in
  for i = k - 1 downto 0 do
    strides.(i) <- !stride;
    stride := !stride * levels.(i).l_arity
  done;
  let rec find i = if a / strides.(i) = b / strides.(i) then find (i + 1) else i in
  if a = b then -1 else find 0

let make_hier ?(name = "custom") ~levels ~threads_per_cluster latency =
  let levels = Array.of_list levels in
  if Array.length levels = 0 then invalid_arg "Topology.make_hier: no levels";
  if threads_per_cluster < 1 then
    invalid_arg "Topology.make_hier: threads_per_cluster < 1";
  let clusters = Array.fold_left (fun acc l -> acc * l.l_arity) 1 levels in
  if clusters > max_clusters then
    invalid_arg
      (Printf.sprintf "Topology.make_hier: %d clusters exceed %d" clusters
         max_clusters);
  (* Precompute the leaf-to-leaf transfer cost and crossing-level
     matrices once: the coherence hot path indexes them directly. *)
  let xfer = Array.make (clusters * clusters) 0 in
  let xlevel = Array.make (clusters * clusters) 0 in
  for a = 0 to clusters - 1 do
    for b = 0 to clusters - 1 do
      if a <> b then begin
        let c = crossing_level levels a b in
        xfer.((a * clusters) + b) <- levels.(c).l_transfer;
        xlevel.((a * clusters) + b) <- c
      end
    done
  done;
  { name; levels; clusters; threads_per_cluster; latency; xfer; xlevel }

let make ?(name = "custom") ~clusters ~threads_per_cluster latency =
  if clusters < 1 then invalid_arg "Topology.make: clusters < 1";
  if threads_per_cluster < 1 then
    invalid_arg "Topology.make: threads_per_cluster < 1";
  make_hier ~name
    ~levels:
      [
        level ~name:"cluster" ~arity:clusters
          ~transfer:latency.Latency.remote_transfer
          ~channels:latency.Latency.interconnect_channels
          ~occupancy:latency.Latency.interconnect_occupancy ();
      ]
    ~threads_per_cluster latency

let t5440 =
  make ~name:"t5440" ~clusters:4 ~threads_per_cluster:64 Latency.t5440

let small = make ~name:"small" ~clusters:2 ~threads_per_cluster:4 Latency.t5440

(* Two racks of two sockets: three latency tiers (local 20 ns, socket
   125 ns, rack 300 ns on the T5440 base). Each socket is a cluster, so
   cohort locks see 4 clusters of 64 — same shape as t5440, different
   cost structure above the socket. *)
let rack =
  make_hier ~name:"rack"
    ~levels:
      [
        level ~name:"rack" ~arity:2 ~transfer:300 ~channels:1 ~occupancy:120 ();
        level ~name:"socket" ~arity:2 ~transfer:125 ~channels:2 ~occupancy:60 ();
      ]
    ~threads_per_cluster:64 Latency.t5440

let total_threads t = t.clusters * t.threads_per_cluster

let cluster_of_thread t tid =
  if tid < 0 then
    invalid_arg (Printf.sprintf "Topology.cluster_of_thread: tid %d < 0" tid);
  tid mod total_threads t mod t.clusters
let xfer_cost t a b = t.xfer.((a * t.clusters) + b)
let cross_level t a b = t.xlevel.((a * t.clusters) + b)

let mean_remote_transfer_ns t =
  if t.clusters = 1 then float_of_int t.levels.(0).l_transfer
  else begin
    let sum = ref 0 and pairs = ref 0 in
    for a = 0 to t.clusters - 1 do
      for b = a + 1 to t.clusters - 1 do
        sum := !sum + xfer_cost t a b;
        incr pairs
      done
    done;
    float_of_int !sum /. float_of_int !pairs
  end

let predict_calib t =
  { Numa_trace.Predict.contexts = total_threads t;
    local_ns = float_of_int t.latency.Latency.local_hit;
    remote_ns = mean_remote_transfer_ns t;
    atomic_ns = float_of_int t.latency.Latency.atomic_extra }

let of_spec s =
  let too_many n =
    Error
      (Printf.sprintf "topology spec %S: %d clusters exceed %d" s n
         max_clusters)
  in
  match s with
  | "t5440" -> Ok t5440
  | "small" -> Ok small
  | "rack" -> Ok rack
  | _ -> (
      let parts = String.split_on_char 'x' (String.lowercase_ascii s) in
      match List.map int_of_string_opt parts with
      | [ Some c; Some tpc ] when c >= 1 && tpc >= 1 ->
          if c > max_clusters then too_many c
          else
            Ok
              (make
                 ~name:(Printf.sprintf "%dx%d" c tpc)
                 ~clusters:c ~threads_per_cluster:tpc Latency.t5440)
      | [ Some r; Some sk; Some tpc ] when r >= 1 && sk >= 1 && tpc >= 1 ->
          if r * sk > max_clusters then too_many (r * sk)
          else
            Ok
              (make_hier
                 ~name:(Printf.sprintf "%dx%dx%d" r sk tpc)
                 ~levels:
                   [
                     level ~name:"rack" ~arity:r ~transfer:300 ~channels:1
                       ~occupancy:120 ();
                     level ~name:"socket" ~arity:sk ~transfer:125 ~channels:2
                       ~occupancy:60 ();
                   ]
                 ~threads_per_cluster:tpc Latency.t5440)
      | _ ->
          Error
            (Printf.sprintf
               "unknown topology %S (want t5440|small|rack|CxT|RxSxT)" s))
