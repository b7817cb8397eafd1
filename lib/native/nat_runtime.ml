open Numa_base

let deterministic = false

type stop_flag = bool Nat_mem.cell

let request_stop f = Nat_mem.write f true
let stopped f = Nat_mem.read f

let run ~topology ~n_threads ?stop_after ?profile:_ body =
  if n_threads < 1 then invalid_arg "Nat_runtime.run: n_threads < 1";
  let stop = Nat_mem.cell' false in
  let failure = Atomic.make None in
  let t0 = Nat_mem.now () in
  let domains =
    List.init n_threads (fun tid ->
        (* Oversubscribed tids wrap onto hardware contexts; each Domain
           still runs a distinct logical thread, only the declared
           placement repeats. *)
        let cluster = Topology.cluster_of_thread topology tid in
        Domain.spawn (fun () ->
            try body ~stop ~tid ~cluster
            with exn ->
              let backtrace = Printexc.get_backtrace () in
              ignore
                (Atomic.compare_and_set failure None
                   (Some (tid, exn, backtrace)));
              (* Let the surviving threads wind down instead of spinning
                 on a run that can no longer finish. *)
              request_stop stop))
  in
  (match stop_after with
  | Some ns ->
      Unix.sleepf (float_of_int ns *. 1e-9);
      request_stop stop
  | None -> ());
  List.iter Domain.join domains;
  match Atomic.get failure with
  | Some (tid, exn, backtrace) ->
      raise (Runtime_intf.Thread_failure { tid; exn; backtrace })
  | None ->
      {
        Runtime_intf.elapsed_ns = Nat_mem.now () - t0;
        threads_finished = n_threads;
        profile = None;
        sim_events = None;
        event_classes = None;
        queue_tiers = None;
      }
