type calib = {
  contexts : int;
  local_ns : float;
  remote_ns : float;
  atomic_ns : float;
}

type t = {
  n_threads : int;
  service_ns : float;
  handoff_ns : float;
  serial_bound : float;
  contended_bound : float;
  throughput : float;
  err : float;
}

let predict ~calib ~noncrit_ns ~n_threads ~hold_mean_ns ~batch_p50
    ~icx_queue_mean_ns ?measured () =
  let service_ns = if Float.is_nan hold_mean_ns then 0. else hold_mean_ns in
  let batch =
    if Float.is_nan batch_p50 || batch_p50 < 1. then 1. else batch_p50
  in
  (* A batch of B acquisitions pays one global (cross-interconnect)
     transfer and B - 1 within-cluster handoffs. *)
  let global_frac = 1. /. batch in
  let global_ns = calib.remote_ns +. icx_queue_mean_ns +. calib.atomic_ns in
  let local_ns = calib.local_ns +. calib.atomic_ns in
  let handoff_ns =
    (global_frac *. global_ns) +. ((1. -. global_frac) *. local_ns)
  in
  (* Uncontended acquire: one RMW on a (possibly cluster-resident) lock
     word. Analytic, not the measured wait — using measured waiting
     would make the serial bound tautological via Little's law. *)
  let acquire_ns = calib.atomic_ns +. calib.local_ns in
  let n_eff = float_of_int (min n_threads calib.contexts) in
  let serial_bound =
    n_eff *. 1e9 /. (service_ns +. noncrit_ns +. acquire_ns)
  in
  let contended_bound = 1e9 /. (service_ns +. handoff_ns) in
  let throughput = Float.min serial_bound contended_bound in
  let err =
    match measured with
    | Some m when m > 0. && not (Float.is_nan throughput) ->
        (throughput -. m) /. m
    | _ -> Float.nan
  in
  { n_threads; service_ns; handoff_ns; serial_bound; contended_bound;
    throughput; err }

let to_fields p =
  [ ("pred_throughput", p.throughput);
    ("pred_err", p.err);
    ("pred_serial_bound", p.serial_bound);
    ("pred_contended_bound", p.contended_bound);
    ("pred_service_ns", p.service_ns);
    ("pred_handoff_ns", p.handoff_ns) ]
