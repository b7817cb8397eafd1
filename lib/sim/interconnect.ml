(* One channel pool per topology level. A transaction acquires a channel
   of the level of the outermost boundary it crossed; on a single-level
   machine that is always pool 0 and the model reduces exactly to the
   historical flat one. *)
type pool = {
  p_name : string;
  chans : int array;
  occupancy : int;
  (* Occupancy/queueing statistics. Always on: bumping them never feeds
     back into the returned delay, so they are schedule-neutral. *)
  mutable txns : int;
  mutable queue_ns : int;
  mutable busy_ns : int;
  mutable peak_queue : int;
}

type t = { pools : pool array }

let create (topo : Numa_base.Topology.t) =
  {
    pools =
      Array.map
        (fun (l : Numa_base.Topology.level) ->
          {
            p_name = l.Numa_base.Topology.l_name;
            chans = Array.make (max 1 l.Numa_base.Topology.l_channels) 0;
            occupancy = l.Numa_base.Topology.l_occupancy;
            txns = 0;
            queue_ns = 0;
            busy_ns = 0;
            peak_queue = 0;
          })
        topo.Numa_base.Topology.levels;
  }

let acquire t ~level ~now =
  let p = t.pools.(level) in
  p.txns <- p.txns + 1;
  if p.occupancy = 0 then 0
  else begin
    (* Earliest-free channel; count the busy ones for the depth stat. *)
    let best = ref 0 and busy = ref 0 in
    for i = 0 to Array.length p.chans - 1 do
      if p.chans.(i) < p.chans.(!best) then best := i;
      if p.chans.(i) > now then incr busy
    done;
    let start = if p.chans.(!best) > now then p.chans.(!best) else now in
    p.chans.(!best) <- start + p.occupancy;
    if !busy > p.peak_queue then p.peak_queue <- !busy;
    p.queue_ns <- p.queue_ns + (start - now);
    p.busy_ns <- p.busy_ns + p.occupancy;
    start - now
  end

let export t =
  Array.fold_left
    (fun (acc : Numa_trace.Profile.interconnect) p ->
      {
        Numa_trace.Profile.txns = acc.Numa_trace.Profile.txns + p.txns;
        queue_ns = acc.Numa_trace.Profile.queue_ns + p.queue_ns;
        busy_ns = acc.Numa_trace.Profile.busy_ns + p.busy_ns;
        peak_queue = max acc.Numa_trace.Profile.peak_queue p.peak_queue;
      })
    { Numa_trace.Profile.txns = 0; queue_ns = 0; busy_ns = 0; peak_queue = 0 }
    t.pools

let export_levels t =
  Array.to_list
    (Array.map
       (fun p ->
         {
           Numa_trace.Profile.lvl_name = p.p_name;
           lvl_txns = p.txns;
           lvl_queue_ns = p.queue_ns;
           lvl_busy_ns = p.busy_ns;
           lvl_peak_queue = p.peak_queue;
         })
       t.pools)
