type coherence = {
  accesses : int;
  l1_hits : int;
  local_hits : int;
  coherence_misses : int;
  memory_misses : int;
  invalidations : int;
  remote_txns : int;
  waiter_scans : int;
}

type interconnect = {
  txns : int;
  queue_ns : int;
  busy_ns : int;
  peak_queue : int;
}

type interconnect_level = {
  lvl_name : string;
  lvl_txns : int;
  lvl_queue_ns : int;
  lvl_busy_ns : int;
  lvl_peak_queue : int;
}

type site = {
  site : string;
  mutable s_lines : int;
  mutable s_accesses : int;
  mutable s_l1_hits : int;
  mutable s_local_hits : int;
  mutable s_remote_transfers : int;
  mutable s_memory_misses : int;
  mutable s_inval_sent : int;
  mutable s_inval_received : int;
  mutable s_remote_txns : int;
  mutable s_stall_local_ns : int;
  mutable s_stall_remote_ns : int;
  mutable s_stall_memory_ns : int;
  mutable s_stall_interconnect_ns : int;
}

type t = {
  sites : site list;
  totals : coherence;
  icx : interconnect;
  icx_levels : interconnect_level list;
}

let site_stall s =
  s.s_stall_local_ns + s.s_stall_remote_ns + s.s_stall_memory_ns
  + s.s_stall_interconnect_ns

let fold_sites f init t = List.fold_left f init t.sites

let stall_split t =
  fold_sites
    (fun (l, r, m, i) s ->
      ( l + s.s_stall_local_ns,
        r + s.s_stall_remote_ns,
        m + s.s_stall_memory_ns,
        i + s.s_stall_interconnect_ns ))
    (0, 0, 0, 0) t

let per x n = if n <= 0 then Float.nan else float_of_int x /. float_of_int n

let remote_transfers_per_acquire t ~acquires =
  per t.totals.coherence_misses acquires

let invalidations_per_release t ~releases = per t.totals.invalidations releases

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let lock_lines ?(exclude = [ "lbench."; "cs." ]) t =
  fold_sites
    (fun a s ->
      if List.exists (fun p -> has_prefix p s.site) exclude then a
      else a + s.s_lines)
    0 t

(* Flat metric fields for the benchmark artifact. Totals come from
   the engine-global counters (always meaningful on the simulator);
   per-site rows stay in [t.sites] for reports and are not flattened. *)
let to_fields ~acquires ~releases t =
  let c = t.totals and i = t.icx in
  [
    ("coh_accesses", float_of_int c.accesses);
    ("coh_l1_hits", float_of_int c.l1_hits);
    ("coh_local_hits", float_of_int c.local_hits);
    ("coh_remote_transfers", float_of_int c.coherence_misses);
    ("coh_memory_misses", float_of_int c.memory_misses);
    ("coh_invalidations", float_of_int c.invalidations);
    ("coh_remote_txns", float_of_int c.remote_txns);
    ("coh_remote_transfers_per_acq", per c.coherence_misses acquires);
    ("coh_invalidations_per_release", per c.invalidations releases);
    ("icx_txns", float_of_int i.txns);
    ("icx_queue_ns", float_of_int i.queue_ns);
    ("icx_busy_ns", float_of_int i.busy_ns);
    ("icx_peak_queue", float_of_int i.peak_queue);
  ]
  (* Per-level fields only on multi-level machines, so single-level
     (t5440/small) artifacts are byte-identical to the flat model. *)
  @
  if List.length t.icx_levels <= 1 then []
  else
    List.concat_map
      (fun l ->
        let f suffix v = ("icx_" ^ l.lvl_name ^ "_" ^ suffix, float_of_int v) in
        [
          f "txns" l.lvl_txns;
          f "queue_ns" l.lvl_queue_ns;
          f "busy_ns" l.lvl_busy_ns;
          f "peak_queue" l.lvl_peak_queue;
        ])
      t.icx_levels

(* Sites with the most remote traffic first: the attribution question is
   "which line is migrating", so rank by transfers + invalidations, then
   by total stall, then by name for determinism. *)
let ranked_sites t =
  List.sort
    (fun a b ->
      let traffic s = s.s_remote_transfers + s.s_inval_sent in
      match compare (traffic b) (traffic a) with
      | 0 -> (
          match compare (site_stall b) (site_stall a) with
          | 0 -> compare a.site b.site
          | c -> c)
      | c -> c)
    t.sites

let pp ppf t =
  let c = t.totals and i = t.icx in
  let l, r, m, ic = stall_split t in
  Format.fprintf ppf
    "coherence: %d accesses = %d L1 + %d local + %d remote transfers + %d \
     memory (+%d invalidation rounds); %d interconnect txns@\n"
    c.accesses c.l1_hits c.local_hits c.coherence_misses c.memory_misses
    c.invalidations c.remote_txns;
  Format.fprintf ppf
    "stall ns: local %d | remote %d | memory %d | interconnect %d (queue %d, \
     peak depth %d)@\n"
    l r m ic i.queue_ns i.peak_queue;
  (* Multi-level machines get a per-level rollup line; single-level
     output stays byte-identical to the flat model. *)
  if List.length t.icx_levels > 1 then begin
    Format.fprintf ppf "interconnect levels:";
    List.iteri
      (fun idx lv ->
        Format.fprintf ppf "%s %s txns %d queue %d busy %d peak %d"
          (if idx = 0 then "" else " |")
          lv.lvl_name lv.lvl_txns lv.lvl_queue_ns lv.lvl_busy_ns
          lv.lvl_peak_queue)
      t.icx_levels;
    Format.fprintf ppf "@\n"
  end;
  Format.fprintf ppf "  %-24s %6s %10s %8s %8s %8s %6s %6s %12s@\n" "site"
    "lines" "accesses" "l1" "local" "xfer" "inv>" "inv<" "stall ns";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-24s %6d %10d %8d %8d %8d %6d %6d %12d@\n"
        (if s.site = "" then "(unnamed)" else s.site)
        s.s_lines s.s_accesses s.s_l1_hits s.s_local_hits s.s_remote_transfers
        s.s_inval_sent s.s_inval_received (site_stall s))
    (ranked_sites t)
