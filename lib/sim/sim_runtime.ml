open Numa_base

let deterministic = true

(* The flag is the deadline ([max_int] for none), so polling it is the
   [Sim_mem.now () < stop] check: [Now] is a free effect (no event, no
   simulated time), and golden results do not depend on how often a
   body polls. *)
type stop_flag = int

let stopped deadline = Sim_mem.now () >= deadline

(* The deadline is also the engine's horizon: the run ends there. *)
let run ~topology ~n_threads ?stop_after ?(profile = false) body =
  let stop = Option.value stop_after ~default:max_int in
  let r =
    Engine.run ~topology ~n_threads ?horizon:stop_after ~profile
      (fun ~tid ~cluster -> body ~stop ~tid ~cluster)
  in
  {
    Runtime_intf.elapsed_ns = r.Engine.end_time;
    threads_finished = r.Engine.threads_finished;
    profile = Some r.Engine.profile;
    sim_events = Some r.Engine.events;
    event_classes = Some r.Engine.classes;
    queue_tiers = Some r.Engine.tiers;
  }
