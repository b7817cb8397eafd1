module Tp = Numa_base.Topology

type kind = Read | Write | Rmw

type transition =
  | L1_hit
  | Local_hit
  | Upgrade
  | Fetch_modified
  | Fetch_shared
  | Invalidate
  | Steal
  | Miss_invalidate
  | Memory

module P = Numa_trace.Profile

type line = {
  name : string;
  mutable owner : int;
  mutable sharers : int;
  mutable last_thread : int;
  mutable busy_until : int;
  mutable epoch : int;
  mutable prow : P.site option;
      (* the line's profiler row this epoch; its [s_lines] counts the
         lines attached to it, each once per epoch (see [charge]) *)
  mutable wq : Waitq.t;
}

type stats = {
  mutable accesses : int;
  mutable l1_hits : int;
  mutable local_hits : int;
  mutable coherence_misses : int;
  mutable memory_misses : int;
  mutable invalidations : int;
  mutable remote_txns : int;
  mutable waiter_scans : int;
  mutable last_xlevel : int;
}

type profiler = (string, P.site) Hashtbl.t

let make_line ?(name = "") () =
  {
    name;
    owner = -1;
    sharers = 0;
    last_thread = -1;
    busy_until = 0;
    epoch = -1;
    prow = None;
    wq = Waitq.none;
  }

let own_waitq line =
  let q = line.wq in
  if q != Waitq.none then q
  else begin
    let q = Waitq.create () in
    line.wq <- q;
    q
  end

let fresh_stats () =
  {
    accesses = 0;
    l1_hits = 0;
    local_hits = 0;
    coherence_misses = 0;
    memory_misses = 0;
    invalidations = 0;
    remote_txns = 0;
    waiter_scans = 0;
    last_xlevel = 0;
  }

let make_profiler () : profiler = Hashtbl.create 64

let site_row (p : profiler) site =
  match Hashtbl.find_opt p site with
  | Some r -> r
  | None ->
      let r =
        {
          P.site;
          s_lines = 0;
          s_accesses = 0;
          s_l1_hits = 0;
          s_local_hits = 0;
          s_remote_transfers = 0;
          s_memory_misses = 0;
          s_inval_sent = 0;
          s_inval_received = 0;
          s_remote_txns = 0;
          s_stall_local_ns = 0;
          s_stall_remote_ns = 0;
          s_stall_memory_ns = 0;
          s_stall_interconnect_ns = 0;
        }
      in
      Hashtbl.add p site r;
      r

let sites (p : profiler) =
  Hashtbl.fold (fun _ r acc -> r :: acc) p []
  |> List.sort (fun (a : P.site) b -> compare a.site b.site)

let export st =
  {
    P.accesses = st.accesses;
    l1_hits = st.l1_hits;
    local_hits = st.local_hits;
    coherence_misses = st.coherence_misses;
    memory_misses = st.memory_misses;
    invalidations = st.invalidations;
    remote_txns = st.remote_txns;
    waiter_scans = st.waiter_scans;
  }

let bit c = 1 lsl c
let popcount n = (* sharer masks are tiny; a loop is fine off the default path *)
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

(* Which copy services a cross-domain transaction. A read fetches from
   the nearest sharer (cheapest crossing level); an invalidating write
   is bounded by the round trip to the furthest victim. Ties break on
   the lowest domain index. On a single-level machine every pair costs
   the same flat [remote_transfer], so both reduce to the historical
   model. Pure lookups — no state is touched. *)
let nearest_sharer topo ~from mask =
  let best = ref (-1) and best_cost = ref max_int in
  let m = ref mask and d = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      let c = Tp.xfer_cost topo from !d in
      if c < !best_cost then begin
        best_cost := c;
        best := !d
      end
    end;
    m := !m lsr 1;
    incr d
  done;
  !best

let furthest_sharer topo ~from mask =
  let best = ref (-1) and best_cost = ref min_int in
  let m = ref mask and d = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      let c = Tp.xfer_cost topo from !d in
      if c > !best_cost then begin
        best_cost := c;
        best := !d
      end
    end;
    m := !m lsr 1;
    incr d
  done;
  !best

(* A cross-cluster transfer occupies the line: later transfers queue
   behind it. Returns the total latency including queueing. *)
let transfer line ~now ~cost =
  let start = if line.busy_until > now then line.busy_until else now in
  line.busy_until <- start + cost;
  start - now + cost

(* Attribution helpers: every [p_*] call mutates the site row only —
   never the line state, the latency, or the engine-global counters — so
   a profiled run takes exactly the schedule of an unprofiled one. *)
let[@inline] p_local row l =
  match row with
  | None -> ()
  | Some r ->
      r.P.s_local_hits <- r.P.s_local_hits + 1;
      r.P.s_stall_local_ns <- r.P.s_stall_local_ns + l

(* Counters and attribution of a [Local_hit] or an [Upgrade]. *)
let[@inline] count_local st row ns =
  st.local_hits <- st.local_hits + 1;
  p_local row ns

let p_remote ?(transfer = true) ?(inval_sent = 0) ?(inval_received = 0) row l =
  match row with
  | None -> ()
  | Some r ->
      if transfer then r.P.s_remote_transfers <- r.P.s_remote_transfers + 1;
      r.P.s_inval_sent <- r.P.s_inval_sent + inval_sent;
      r.P.s_inval_received <- r.P.s_inval_received + inval_received;
      r.P.s_remote_txns <- r.P.s_remote_txns + 1;
      r.P.s_stall_remote_ns <- r.P.s_stall_remote_ns + l

let p_memory row l =
  match row with
  | None -> ()
  | Some r ->
      r.P.s_memory_misses <- r.P.s_memory_misses + 1;
      r.P.s_stall_memory_ns <- r.P.s_stall_memory_ns + l

(* An L1 hit: the last accessor again, on a line its domain holds this
   epoch — Modified for any access, Shared for a read. The one place
   that condition is written; [classify] tests it first. *)
let[@inline] is_l1_hit line ~epoch ~domain ~thread kind =
  line.epoch = epoch
  && line.last_thread = thread
  && (line.owner = domain
     || match kind with
        | Read -> line.sharers land bit domain <> 0
        | Write | Rmw -> false)

(* The one place each transition's conditions are written. Pure, so the
   engine fast path can classify a line and fall back to the effect path
   having touched nothing. A line not yet touched this epoch is Invalid
   everywhere: whatever its stale fields say, the access is a memory
   miss ([charge] resets the line first). Past the L1 test, a domain
   that holds the line is another thread's: a local hit. *)
let[@inline] classify line ~epoch ~domain ~thread kind =
  if is_l1_hit line ~epoch ~domain ~thread kind then L1_hit
  else if line.epoch <> epoch then Memory
  else
    match kind with
    | Read ->
        if line.owner = domain || line.sharers land bit domain <> 0 then
          Local_hit
        else if line.owner >= 0 then Fetch_modified
        else if line.sharers <> 0 then Fetch_shared
        else Memory
    | Write | Rmw ->
        if line.owner = domain then Local_hit
        else if line.sharers = bit domain then Upgrade
        else if line.sharers land bit domain <> 0 then Invalidate
        else if line.owner >= 0 then Steal
        else if line.sharers <> 0 then Miss_invalidate
        else Memory

let[@inline] hit_ns (topo : Tp.t) tr =
  let lat = topo.Tp.latency in
  match tr with
  | L1_hit -> lat.l1_hit
  | Local_hit -> lat.local_hit
  | Upgrade -> lat.upgrade_local
  | Fetch_modified | Fetch_shared | Invalidate | Steal | Miss_invalidate
  | Memory ->
      -1

(* An access's latency from its stall [ns]: an Rmw adds [atomic_extra],
   which is latency only and never lands in [s_stall_local_ns]. *)
let[@inline] with_atomic (topo : Tp.t) kind ns =
  match kind with Rmw -> ns + topo.Tp.latency.atomic_extra | Read | Write -> ns

(* What every access but an L1 hit ends with: it is counted, and a
   write leaves the line Modified by [domain] alone. *)
let[@inline] settle st line row ~domain ~thread kind =
  st.accesses <- st.accesses + 1;
  (match row with
  | None -> ()
  | Some r -> r.P.s_accesses <- r.P.s_accesses + 1);
  (match kind with
  | Read -> ()
  | Write | Rmw ->
      line.owner <- domain;
      line.sharers <- 0);
  line.last_thread <- thread

(* The whole of an L1 hit, for [try_hit] and [charge] alike: counters and
   attribution only. [settle]'s stores would change nothing — the thread
   is already [last_thread], and a write finds its domain the [owner],
   which only a write sets, clearing [sharers] with it. *)
let[@inline] l1_retire st (topo : Tp.t) row kind =
  let ns = topo.Tp.latency.l1_hit in
  st.l1_hits <- st.l1_hits + 1;
  st.accesses <- st.accesses + 1;
  (match row with
  | None -> ()
  | Some r ->
      r.P.s_l1_hits <- r.P.s_l1_hits + 1;
      r.P.s_stall_local_ns <- r.P.s_stall_local_ns + ns;
      r.P.s_accesses <- r.P.s_accesses + 1);
  with_atomic topo kind ns

(* The engine fast path: with the helpers above inlined, and itself
   inlined into each [Engine.Mem] primitive (the build compiles without
   [-opaque]), an inline hit makes no call. [line.prow] is [Some] exactly
   when a profiler attributed this line this epoch, so profiled runs
   keep attributing every access. *)
let[@inline] try_hit st (topo : Tp.t) line ~epoch ~domain ~thread kind ~within =
  if is_l1_hit line ~epoch ~domain ~thread kind then
    if with_atomic topo kind topo.Tp.latency.l1_hit > within then -1
    else l1_retire st topo line.prow kind
  else
    let ns = hit_ns topo (classify line ~epoch ~domain ~thread kind) in
    let l = with_atomic topo kind ns in
    if ns < 0 || l > within then -1
    else begin
      let row = line.prow in
      count_local st row ns;
      settle st line row ~domain ~thread kind;
      l
    end

let charge ?prof st (topo : Tp.t) line ~now ~epoch ~domain ~thread kind tr =
  if line.epoch <> epoch then begin
    line.epoch <- epoch;
    line.owner <- -1;
    line.sharers <- 0;
    line.last_thread <- -1;
    line.busy_until <- 0;
    line.prow <- None
  end;
  (* The row is cached on the line for the rest of the epoch, so the
     profiled fast path costs one option branch plus field bumps; the
     unprofiled path costs one [None] branch. *)
  let row =
    match prof with
    | None -> None
    | Some p -> (
        match line.prow with
        | Some _ as r -> r
        | None ->
            let r = site_row p line.name in
            line.prow <- Some r;
            r.P.s_lines <- r.P.s_lines + 1;
            Some r)
  in
  if tr = L1_hit then l1_retire st topo row kind
  else begin
    let lat = topo.Tp.latency in
    let l =
      match tr with
      | Local_hit | Upgrade | L1_hit (* retired above *) ->
          let ns = hit_ns topo tr in
          count_local st row ns;
          ns
      | Fetch_modified ->
          (* Cache-to-cache transfer, demoting the owner to Shared. The
             cost depends on how far the owner is — read it before the
             transition clears [owner]. *)
          st.coherence_misses <- st.coherence_misses + 1;
          st.remote_txns <- st.remote_txns + 1;
          st.last_xlevel <- Tp.cross_level topo domain line.owner;
          let cost = Tp.xfer_cost topo domain line.owner in
          line.sharers <- bit line.owner lor bit domain;
          line.owner <- -1;
          let l = transfer line ~now ~cost in
          p_remote row l;
          l
      | Fetch_shared ->
          st.coherence_misses <- st.coherence_misses + 1;
          st.remote_txns <- st.remote_txns + 1;
          let src = nearest_sharer topo ~from:domain line.sharers in
          st.last_xlevel <- Tp.cross_level topo domain src;
          let cost = Tp.xfer_cost topo domain src in
          line.sharers <- line.sharers lor bit domain;
          let l = transfer line ~now ~cost in
          p_remote row l;
          l
      | Invalidate ->
          (* The round trip is bounded by the furthest victim. *)
          st.invalidations <- st.invalidations + 1;
          st.remote_txns <- st.remote_txns + 1;
          let vmask = line.sharers land lnot (bit domain) in
          let far = furthest_sharer topo ~from:domain vmask in
          st.last_xlevel <- Tp.cross_level topo domain far;
          let l = transfer line ~now ~cost:(Tp.xfer_cost topo domain far) in
          p_remote ~transfer:false ~inval_sent:1
            ~inval_received:(popcount vmask) row l;
          l
      | Steal ->
          (* The owner's copy is invalidated by the ownership transfer. *)
          st.coherence_misses <- st.coherence_misses + 1;
          st.remote_txns <- st.remote_txns + 1;
          st.last_xlevel <- Tp.cross_level topo domain line.owner;
          let l =
            transfer line ~now ~cost:(Tp.xfer_cost topo domain line.owner)
          in
          p_remote ~inval_received:1 row l;
          l
      | Miss_invalidate ->
          st.coherence_misses <- st.coherence_misses + 1;
          st.invalidations <- st.invalidations + 1;
          st.remote_txns <- st.remote_txns + 1;
          let far = furthest_sharer topo ~from:domain line.sharers in
          st.last_xlevel <- Tp.cross_level topo domain far;
          let l = transfer line ~now ~cost:(Tp.xfer_cost topo domain far) in
          p_remote ~inval_sent:1 ~inval_received:(popcount line.sharers) row
            l;
          l
      | Memory ->
          (* a write's [settle] then takes the line Modified *)
          st.memory_misses <- st.memory_misses + 1;
          line.sharers <- bit domain;
          p_memory row lat.mem_access;
          lat.mem_access
    in
    settle st line row ~domain ~thread kind;
    with_atomic topo kind l
  end

let access ?prof st topo line ~now ~epoch ~domain ~thread kind =
  charge ?prof st topo line ~now ~epoch ~domain ~thread kind
    (classify line ~epoch ~domain ~thread kind)
