open Numa_base

let name = "sim"
let deterministic = true

(* The deadline lives in the flag so that polling it reproduces exactly
   the [Sim_mem.now () < stop] check the harness historically performed:
   [Now] is a free effect (no event, no simulated time), so golden
   results are unaffected by how often a body polls. *)
type stop_flag = { mutable deadline : int option; mutable manual : bool }

let request_stop f = f.manual <- true

let stopped f =
  f.manual
  ||
  match f.deadline with Some d -> Sim_mem.now () >= d | None -> false

type barrier = { arrived : int Sim_mem.cell; n : int }

let make_barrier ~n = { arrived = Sim_mem.cell' ~name:"barrier" 0; n }

let await b =
  ignore (Sim_mem.fetch_and_add b.arrived 1);
  ignore (Sim_mem.wait_until b.arrived (fun v -> v >= b.n))

let now = Sim_mem.now

let event_classes (r : Engine.result) =
  List.map
    (fun { Engine.cls; inlined; scheduled } ->
      Runtime_intf.
        { ec_class = Engine.class_to_string cls; ec_inlined = inlined;
          ec_scheduled = scheduled })
    r.Engine.classes

let run ~topology ~n_threads ?stop_after ?(profile = false) body =
  let stop = { deadline = stop_after; manual = false } in
  let r =
    try
      Engine.run ~topology ~n_threads ~profile (fun ~tid ~cluster ->
          body ~stop ~tid ~cluster)
    with Engine.Thread_failure { tid; exn; backtrace } ->
      raise (Runtime_intf.Thread_failure { tid; exn; backtrace })
  in
  {
    Runtime_intf.elapsed_ns = r.Engine.end_time;
    threads_finished = r.Engine.threads_finished;
    coherence = Some (Coherence.export r.Engine.coherence);
    interconnect = Some r.Engine.icx;
    interconnect_levels = Some r.Engine.icx_levels;
    sim_events = Some r.Engine.events;
    event_classes = Some (event_classes r);
    sites = r.Engine.sites;
  }
