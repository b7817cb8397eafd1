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
    }

  let n_items t = t.n_items

  let bump_stats t ~tid =
    let c = t.thread_stats.(tid mod Array.length t.thread_stats) in
    let v = M.read c in
    M.write c (v + 1)

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
        if now - last > lru_resolution then M.write it.lru now;
        Some v
    | _, None -> None

  let set t ~tid k v =
    bump_stats t ~tid;
    match find_item t k with
    | b, Some it ->
        (* Stores also maintain the bucket's LRU chain in memcached, so
           every set dirties the bucket line — part of why write-heavy
           mixes stress the cache lock harder (Table 1c). *)
        M.write t.bucket_tags.(b) 1;
        M.write it.value v;
        M.write it.lru (M.now ())
    | b, None ->
        let ln = M.line ~name:"kv.item" () in
        let it =
          { key = k; value = M.cell ln v; lru = M.cell ln 0; seeded = false }
        in
        M.write t.bucket_tags.(b) 1;
        M.write it.lru (M.now ());
        t.buckets.(b) <- it :: t.buckets.(b);
        t.n_items <- t.n_items + 1

  let mem t k = match find_item t k with _, Some _ -> true | _ -> false

  let peek t k =
    match find_item t k with
    | _, Some it ->
        let v = M.read it.value in
        Some (v, M.read it.lru)
    | _, None -> None

  (* Pre-populate without charging simulated time (host-side setup). *)
  let populate t ~n_keys =
    for k = 0 to n_keys - 1 do
      let b = hash k mod t.n_buckets in
      let ln = M.line ~name:"kv.item" () in
      let it =
        { key = k; value = M.cell ln k; lru = M.cell ln 0; seeded = true }
      in
      t.buckets.(b) <- it :: t.buckets.(b);
      t.n_items <- t.n_items + 1;
      t.n_seeded <- t.n_seeded + 1
    done

  (* Host-side, between runs: [List.filter] keeps the seeded items in
     their populate order, so lookups walk the same chains as in a fresh
     store. *)
  let reset t =
    if t.n_items > t.n_seeded then begin
      Array.iteri
        (fun b items ->
          t.buckets.(b) <- List.filter (fun it -> it.seeded) items)
        t.buckets;
      t.n_items <- t.n_seeded
    end;
    Array.iter
      (List.iter (fun it ->
           M.init it.value it.key;
           M.init it.lru 0))
      t.buckets;
    Array.iter (fun c -> M.init c 0) t.bucket_tags;
    Array.iter (fun c -> M.init c 0) t.thread_stats
end
