(** A single-lock memory allocator modelled on the default Solaris libc
    malloc the paper evaluates in Table 2.

    Free blocks are indexed by size in a {!Splay} tree; a freed block
    splays to the root, so the most recently deallocated block of a size
    is the first one returned for the next request — the recycling
    behaviour the paper identifies as the source of the cohort locks'
    5-6x win (blocks, and the lines holding their headers and data, keep
    circulating within one NUMA cluster while a cohort holds the lock).

    Thread safety is the caller's job: like the libc allocator, all
    operations must run under one external lock (see
    [Harness.Experiments.table2]). Shared-memory costs are charged
    through [M] on the structures that matter: the allocator's hot
    metadata line on every operation, and the header/data lines of the
    block being allocated or freed. Duplicate sizes are kept as a LIFO
    stack in the tree node's value. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  type block = {
    bid : int;
    size : int;
    header : int M.cell;  (* the block's allocator-metadata line *)
    data : int M.cell;  (* the first words of user memory *)
    mutable allocated : bool;  (* host-level bookkeeping for misuse checks *)
  }

  type stats = {
    mutable allocs : int;
    mutable frees : int;
    mutable fresh_blocks : int;  (* served by extending the heap *)
    mutable recycled : int;  (* served from the free tree *)
  }

  type t = {
    meta : int M.cell;
    path_lines : int M.cell array;
        (* one line per splay-tree level: rotations dirty the nodes on the
           search path, and those lines migrate with the lock *)
    mutable free_tree : block list Splay.t;
    mutable next_id : int;
    stats : stats;
  }

  exception Double_free of int

  (* Instruction work of a malloc / free beyond its memory traffic
     (rotation bookkeeping, size-class logic, header checks), in ns. *)
  let malloc_work = 250
  let free_work = 150
  let max_path = 24

  let create () =
    {
      meta = M.cell' ~name:"alloc.meta" 0;
      path_lines =
        Array.init max_path (fun i ->
            M.cell' ~name:(Printf.sprintf "alloc.path.%d" i) 0);
      free_tree = Splay.empty;
      next_id = 0;
      stats = { allocs = 0; frees = 0; fresh_blocks = 0; recycled = 0 };
    }

  let stats t = t.stats

  (* Bump the hot metadata line: every malloc/free mutates allocator
     metadata, so this line ping-pongs between clusters exactly when the
     lock does. *)
  let touch_meta t =
    let v = M.read t.meta in
    M.write t.meta (v + 1)

  (* Splay rotations rewrite every node on the search path. *)
  let touch_path t ~size =
    let d = min (Splay.depth_of size t.free_tree) max_path in
    for i = 0 to d - 1 do
      let c = t.path_lines.(i) in
      M.write c (M.read c + 1)
    done

  let fresh_block t ~size =
    let ln_h = M.line ~name:"alloc.hdr" () in
    let ln_d = M.line ~name:"alloc.data" () in
    let b =
      {
        bid = t.next_id;
        size;
        header = M.cell ln_h size;
        data = M.cell ln_d 0;
        allocated = true;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stats.fresh_blocks <- t.stats.fresh_blocks + 1;
    (* Cold header initialisation. *)
    M.write b.header size;
    b

  let malloc t ~size =
    if size <= 0 then invalid_arg "Allocator.malloc: size <= 0";
    touch_meta t;
    touch_path t ~size;
    M.pause malloc_work;
    t.stats.allocs <- t.stats.allocs + 1;
    match Splay.find_ge size t.free_tree with
    | Some (_, b :: rest, tree') ->
        t.free_tree <-
          (if rest = [] then Splay.remove_root tree'
           else Splay.replace_root rest tree');
        t.stats.recycled <- t.stats.recycled + 1;
        b.allocated <- true;
        (* Unlinking updates the block's header. *)
        M.write b.header b.size;
        b
    | Some (_, [], _) -> assert false (* empty stacks are removed on free *)
    | None -> fresh_block t ~size

  let free t b =
    if not b.allocated then raise (Double_free b.bid);
    b.allocated <- false;
    touch_meta t;
    touch_path t ~size:b.size;
    M.pause free_work;
    t.stats.frees <- t.stats.frees + 1;
    (* Linking into the tree updates the header; insertion splays the
       size class to the root (LIFO within the class). *)
    M.write b.header 0;
    t.free_tree <-
      Splay.insert b.size [ b ] ~combine:(fun fresh old -> fresh @ old)
        t.free_tree

  (* The application-side write to the allocated memory (mmicro
     initialises the first words of every block). *)
  let write_data b v = M.write b.data v
  let read_data b = M.read b.data
end
