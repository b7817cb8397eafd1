(** An in-memory key-value store modelled on memcached's hash table, for
    the Table 1 experiment.

    memcached stores items in one big hash table; every server thread
    takes a single {e cache lock} around table operations, and that lock
    is the scalability bottleneck the paper attacks. This store mirrors
    the memory behaviour that matters under that lock:

    - a per-bucket tag line touched by every lookup in the bucket,
    - a per-item line holding the value and LRU stamp (written on [set]
      and, like memcached's LRU touch, on [get]),
    - a global statistics line written by every operation.

    All operations must be called with the external cache lock held; the
    request parsing/response work that memcached does {e outside} the
    lock is modelled by the harness as uncharged think-time. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  type item = {
    key : int;
    value : int M.cell;
    lru : int M.cell;
    seeded : bool;  (* loaded by [populate], not inserted by [set] *)
    mutable dirty : bool;  (* on [t.dirtied]: [reset] must restore it *)
  }

  (* memcached bumps an item's LRU recency at most once per interval, so
     a read-heavy workload generates almost no write traffic per get. *)
  let lru_resolution = 100_000 (* ns *)

  type t = {
    n_buckets : int;
    buckets : item list array;
    bucket_tags : int M.cell array;
    thread_stats : int M.cell array;
        (* memcached keeps statistics per worker thread precisely so the
           counters do not become a coherence hot spot. *)
    mutable n_items : int;
    mutable n_seeded : int;
    mutable dirtied : item list;
        (* host-side: every item a [set] or an LRU touch wrote, and every
           item a [set] inserted, since the last [reset] *)
    mutable stats_hi : int;
        (* host-side: stats counters at or above it are still 0 *)
  }

  let hash k =
    let h = k * 0x9E3779B1 in
    let h = h lxor (h lsr 16) in
    h land max_int

  let create ?(max_threads = 512) ~n_buckets () =
    if n_buckets <= 0 then invalid_arg "Kvstore.create: n_buckets <= 0";
    {
      n_buckets;
      buckets = Array.make n_buckets [];
      bucket_tags =
        Array.init n_buckets (fun i ->
            M.cell' ~name:(Printf.sprintf "kv.bucket.%d" i) 0);
      thread_stats =
        Array.init max_threads (fun i ->
            M.cell' ~name:(Printf.sprintf "kv.stats.%d" i) 0);
      n_items = 0;
      n_seeded = 0;
      dirtied = [];
      stats_hi = 0;
    }

  let n_items t = t.n_items

  let bump_stats t ~tid =
    let i = tid mod Array.length t.thread_stats in
    if i >= t.stats_hi then t.stats_hi <- i + 1;
    let c = t.thread_stats.(i) in
    let v = M.read c in
    M.write c (v + 1)

  let mark t it =
    if not it.dirty then begin
      it.dirty <- true;
      t.dirtied <- it :: t.dirtied
    end

  let find_item t k =
    let b = hash k mod t.n_buckets in
    ignore (M.read t.bucket_tags.(b));
    (b, List.find_opt (fun it -> it.key = k) t.buckets.(b))

  let get t ~tid k =
    bump_stats t ~tid;
    match find_item t k with
    | _, Some it ->
        let v = M.read it.value in
        (* Rate-limited LRU touch (see [lru_resolution]). *)
        let last = M.read it.lru in
        let now = M.now () in
        if now - last > lru_resolution then begin
          mark t it;
          M.write it.lru now
        end;
        Some v
    | _, None -> None

  let set t ~tid k v =
    bump_stats t ~tid;
    match find_item t k with
    | b, Some it ->
        (* Stores also maintain the bucket's LRU chain in memcached, so
           every set dirties the bucket line — part of why write-heavy
           mixes stress the cache lock harder (Table 1c). *)
        mark t it;
        M.write t.bucket_tags.(b) 1;
        M.write it.value v;
        M.write it.lru (M.now ())
    | b, None ->
        let ln = M.line ~name:"kv.item" () in
        let it =
          {
            key = k;
            value = M.cell ln v;
            lru = M.cell ln 0;
            seeded = false;
            dirty = false;
          }
        in
        mark t it;
        M.write t.bucket_tags.(b) 1;
        M.write it.lru (M.now ());
        t.buckets.(b) <- it :: t.buckets.(b);
        t.n_items <- t.n_items + 1

  (* Pre-populate without charging simulated time (host-side setup). *)
  let populate t ~n_keys =
    for k = 0 to n_keys - 1 do
      let b = hash k mod t.n_buckets in
      let ln = M.line ~name:"kv.item" () in
      let it =
        {
          key = k;
          value = M.cell ln k;
          lru = M.cell ln 0;
          seeded = true;
          dirty = false;
        }
      in
      t.buckets.(b) <- it :: t.buckets.(b);
      t.n_items <- t.n_items + 1;
      t.n_seeded <- t.n_seeded + 1
    done

  (* Host-side, between runs. Only what a run wrote can differ from
     [populate]'s state: the items on [t.dirtied], their buckets' tags
     (only a [set] writes a tag, and it marks the item it writes or
     inserts) and the stats counters below [stats_hi]. A Table 1 cell
     writes a few thousand of the 16,384 items, so this skips the rest.
     [List.filter] keeps the seeded items of a bucket an insert touched
     in their populate order, so lookups walk the same chains as in a
     fresh store. *)
  let reset t =
    List.iter
      (fun it ->
        let b = hash it.key mod t.n_buckets in
        if it.seeded then begin
          it.dirty <- false;
          M.init it.value it.key;
          M.init it.lru 0
        end
        else t.buckets.(b) <- List.filter (fun it -> it.seeded) t.buckets.(b);
        M.init t.bucket_tags.(b) 0)
      t.dirtied;
    t.dirtied <- [];
    t.n_items <- t.n_seeded;
    for i = 0 to t.stats_hi - 1 do
      M.init t.thread_stats.(i) 0
    done;
    t.stats_hi <- 0

  let cells t =
    List.concat
      (List.mapi
         (fun b items ->
           t.bucket_tags.(b)
           :: List.concat_map (fun it -> [ it.value; it.lru ]) items)
         (Array.to_list t.buckets))
    @ Array.to_list t.thread_stats
end
