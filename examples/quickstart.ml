(* Quickstart: protect a shared counter with a NUMA-aware cohort lock on
   real OCaml domains.

     dune exec examples/quickstart.exe

   The lock algorithms are functors over an abstract memory substrate;
   here we instantiate C-BO-MCS (global backoff lock + per-cluster MCS
   queues) over the native Atomic-backed substrate. Because portable
   thread pinning is unavailable, each domain declares which NUMA cluster
   it runs on by passing it to [register]: the lock reads the thread's
   identity from its handle, never from the substrate. *)

module Mem = Numa_native.Nat_mem
module Table = Cohort.Cohort_locks.Make (Mem)
module Lock = (val Table.get ~global:"BO" ~local:"MCS")

let n_domains = 4
let increments = 10_000

let () =
  (* 2 clusters of the machine, up to 8 threads, hand off the lock at
     most 64 times within a cluster before releasing it globally. *)
  let cfg =
    { Cohort.Lock_intf.default with clusters = 2; max_threads = n_domains }
  in
  let lock = Lock.create cfg in
  let counter = ref 0 in
  let worker tid =
    Domain.spawn (fun () ->
        let cluster = tid mod 2 in
        let th = Lock.register lock ~tid ~cluster in
        for _ = 1 to increments do
          Lock.acquire th;
          (* Unsynchronised read-modify-write: safe only under the lock. *)
          counter := !counter + 1;
          Lock.release th
        done)
  in
  let domains = List.init n_domains worker in
  List.iter Domain.join domains;
  Printf.printf "expected %d, got %d — %s\n"
    (n_domains * increments)
    !counter
    (if !counter = n_domains * increments then "mutual exclusion held"
     else "LOST UPDATES!")
