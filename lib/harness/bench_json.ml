module J = Numa_trace.Json

let schema_version = "cohort-bench/3"

type entry = {
  experiment : string;
  lock : string;
  threads : int;
  metrics : (string * float) list;
}

type t = {
  substrate : string;
  seed : int;
  entries : entry list;
}

let make ~substrate ~seed entries =
  { substrate; seed; entries }

let entry_of_result ~experiment (r : Bench_core.result) =
  {
    experiment;
    lock = r.Bench_core.lock_name;
    threads = r.Bench_core.n_threads;
    metrics =
      [
        ("iterations", float_of_int r.Bench_core.iterations);
        ("throughput", r.Bench_core.throughput);
        ("fairness_stddev_pct", r.Bench_core.fairness_stddev_pct);
        ("migrations", float_of_int r.Bench_core.migrations);
        ("misses_per_cs", r.Bench_core.misses_per_cs);
        ("aborts", float_of_int r.Bench_core.aborts);
        ("abort_rate", r.Bench_core.abort_rate);
        ("acquire_p50_ns", r.Bench_core.acquire_p50);
        ("acquire_p99_ns", r.Bench_core.acquire_p99);
        ("acquire_max_ns", r.Bench_core.acquire_max);
      ]
      @ (match r.Bench_core.rollup with
        | None -> []
        | Some m -> Numa_trace.Metrics.to_fields m)
      @ (match r.Bench_core.profile with
        | None -> []
        | Some p ->
            Numa_trace.Profile.to_fields ~acquires:r.Bench_core.iterations
              ~releases:r.Bench_core.iterations p)
      @ (match r.Bench_core.predicted with
        | None -> []
        | Some p -> Numa_trace.Predict.to_fields p);
  }

let num v =
  if Float.is_nan v then J.Null
  else if Float.is_integer v && Float.abs v < 1e15 then J.Int (int_of_float v)
  else J.Float v

let entry_to_json e =
  J.Obj
    [
      ("experiment", J.String e.experiment);
      ("lock", J.String e.lock);
      ("threads", J.Int e.threads);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, num v)) e.metrics));
    ]

let to_json t =
  J.Obj
    [
      ("schema", J.String schema_version);
      ("substrate", J.String t.substrate);
      ("seed", J.Int t.seed);
      ("entries", J.List (List.map entry_to_json t.entries));
    ]

let ( let* ) = Result.bind

let str_field name j =
  match Option.bind (J.member name j) J.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing %s field" name)

let entry_of_json j =
  let* experiment = str_field "experiment" j in
  let* lock = str_field "lock" j in
  let* threads =
    match J.member "threads" j with
    | Some (J.Int n) -> Ok n
    | _ -> Error "entry: missing threads"
  in
  let* metrics =
    match J.member "metrics" j with
    | Some (J.Obj kvs) ->
        Ok
          (List.map
             (fun (k, v) ->
               (k, Option.value (J.to_float v) ~default:Float.nan))
             kvs)
    | _ -> Error "entry: missing metrics"
  in
  Ok { experiment; lock; threads; metrics }

let of_json j =
  let* schema = str_field "schema" j in
  let* () =
    if schema = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "unsupported schema %S (want %S)" schema schema_version)
  in
  let substrate =
    Option.value
      (Option.bind (J.member "substrate" j) J.to_string_opt)
      ~default:"sim"
  in
  let seed = match J.member "seed" j with Some (J.Int n) -> n | _ -> 0 in
  let* entries =
    match J.member "entries" j with
    | Some (J.List l) ->
        List.fold_left
          (fun acc ej ->
            let* acc = acc in
            let* e = entry_of_json ej in
            Ok (e :: acc))
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "missing entries field"
  in
  Ok { substrate; seed; entries }

let to_string t = J.to_string ~pretty:true (to_json t) ^ "\n"

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | s ->
      let* j = J.of_string s in
      of_json j

(* Regression gating for bench_diff / ci.sh. *)

type comparison = {
  key : string;  (** "experiment/lock/threads". *)
  metric : string;
  baseline : float;
  current : float;
  delta_pct : float;  (** signed; negative = slower than baseline. *)
}

let key_of e = Printf.sprintf "%s/%s/t%d" e.experiment e.lock e.threads

let index t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tbl (key_of e) e) t.entries;
  tbl

(* Higher-is-better metrics worth gating on; everything else in the
   artifact is descriptive. *)
let gated_metrics = [ "throughput" ]

let compare_artifacts ~baseline ~current ~threshold_pct =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  let index = index current in
  let regressions = ref [] in
  List.iter
    (fun be ->
      let key = key_of be in
      match Hashtbl.find_opt index key with
      | None -> warn "baseline entry %s missing from current artifact" key
      | Some ce ->
          List.iter
            (fun metric ->
              match
                (List.assoc_opt metric be.metrics, List.assoc_opt metric ce.metrics)
              with
              | Some b, Some c
                when (not (Float.is_nan b)) && not (Float.is_nan c) ->
                  if b > 0. then begin
                    let delta_pct = (c -. b) /. b *. 100. in
                    if delta_pct < -.threshold_pct then
                      regressions :=
                        { key; metric; baseline = b; current = c; delta_pct }
                        :: !regressions
                  end
              | _ -> warn "metric %s not comparable for %s" metric key)
            gated_metrics)
    baseline.entries;
  (List.rev !regressions, List.rev !warnings)
