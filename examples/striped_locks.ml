(* Cohort locks compose with classic lock striping: shard the store and
   give every shard its own cohort lock.

     dune exec examples/striped_locks.exe

   memcached eventually replaced its single cache lock with striped
   locks; this example shows the two techniques are complementary — at
   high thread counts, striping spreads contention across locks while
   cohorting keeps each lock's traffic on one socket. *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module Kv = Apps.Kvstore.Make (M)
module W = Apps.Kv_workload
module Table = Cohort.Cohort_locks.Make (M)
module Lock = (val Table.get ~global:"TKT" ~local:"MCS")
module Mcs = Cohort.Mcs_lock.Make (M)

let topology = Numa_base.Topology.t5440
let duration = 3_000_000
let n_threads = 64
let n_keys = 8_192

type setup = { label : string; stripes : int; cohort : bool }

let run { label; stripes; cohort } =
  let cfg = { LI.default with LI.clusters = 4; max_threads = 256 } in
  let shards =
    Array.init stripes (fun _ ->
        let s = Kv.create ~n_buckets:512 () in
        Kv.populate s ~n_keys:(n_keys / stripes);
        s)
  in
  (* Either cohort locks or plain MCS locks guard the shards. *)
  let locks_cohort = Array.init stripes (fun _ -> Lock.create cfg) in
  let locks_mcs = Array.init stripes (fun _ -> Mcs.Plain.create cfg) in
  let ops = ref 0 in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
         let ths_c =
           Array.map (fun l -> Lock.register l ~tid ~cluster) locks_cohort
         in
         let ths_m =
           Array.map (fun l -> Mcs.Plain.register l ~tid ~cluster) locks_mcs
         in
         let w = W.make ~seed:(tid + 17) ~n_keys ~mix:W.write_heavy in
         let rec loop () =
           if M.now () < duration then begin
             M.pause 1_000 (* request handling outside any lock *);
             let k = match W.next w with W.Get k | W.Set (k, _) -> k in
             let shard = k mod stripes in
             let key = k / stripes in
             if cohort then begin
               Lock.acquire ths_c.(shard);
               Kv.set shards.(shard) ~tid key tid;
               Lock.release ths_c.(shard)
             end
             else begin
               Mcs.Plain.acquire ths_m.(shard);
               Kv.set shards.(shard) ~tid key tid;
               Mcs.Plain.release ths_m.(shard)
             end;
             incr ops;
             loop ()
           end
         in
         loop ()));
  Printf.printf "%-28s %10s ops/s\n" label
    (Harness.Report.fmt_si (float_of_int !ops /. (float_of_int duration *. 1e-9)))

let () =
  Printf.printf
    "Striping x cohorting on a write-heavy store, %d threads:\n\n" n_threads;
  List.iter run
    [
      { label = "1 stripe,  MCS"; stripes = 1; cohort = false };
      { label = "1 stripe,  C-TKT-MCS"; stripes = 1; cohort = true };
      { label = "8 stripes, MCS"; stripes = 8; cohort = false };
      { label = "8 stripes, C-TKT-MCS"; stripes = 8; cohort = true };
    ];
  Printf.printf
    "\nStriping and cohorting attack different costs (queueing vs \
     locality)\nand stack multiplicatively.\n"
