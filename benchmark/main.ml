(* The repository benchmark: one workload per run, one process, one host
   thread. Workloads call the experiment functions users run; see
   benchmark/README.md for the workloads, metrics and bounds.

     dune exec benchmark/main.exe -- --workload NAME --seed S
         [--seconds T] [--trace 0|1|FILE]
     dune exec benchmark/main.exe -- --smoke BENCHMARK.json

   A run:
   1. set-up: 15 fresh processes each start, build the workload's inputs
      and report the CPU time that took; [setup_s] is their median;
   2. one untimed warm-up rep, whose per-operation digests become the
      reference;
   3. timed reps, each after [Gc.compact ()], while the next one still
      fits in [--seconds] (at least 3); host metrics are their medians.
   Every rep is checked against the reference, operation by operation;
   a mismatch, an exception, an empty in-capacity point, an unexhausted
   search or an escaped mutant is a failed operation.

   Host times are given at the reference speed of [Calib]: each set-up
   process and each timed rep is timed next to the reference task, on
   the same vCPU at the same moment, and scaled by it.

   [--trace 1] (or [--trace FILE]) adds the traced rep and the A/B reps
   of [Layers] and reports per-layer metrics instead of end-to-end ones;
   the spans go to FILE, by default benchmark/_out/trace-NAME-seedS.json.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}.

   [--smoke SPEC] runs every workload at 1/40 size with 2 timed reps and
   the traced protocol, and fails unless each prints exactly the metrics
   SPEC (BENCHMARK.json) lists, with its units, and no operation fails. *)

module Wl = Workloads
module J = Numa_trace.Json

let now = Spans.now
let min_reps = 3

(* How many set-up processes a run starts, and the share of the
   reference task each one times and each timed rep is scaled by. Smoke
   runs check the protocol, not the host, so they keep these small. *)
let setup_spawns = function Wl.Full -> 15 | Wl.Smoke -> 3
let setup_share = function Wl.Full -> 0.25 | Wl.Smoke -> 0.05
let rep_share = function Wl.Full -> 1. | Wl.Smoke -> 0.05

(* --- Set-up ---------------------------------------------------------------- *)

let scale_arg = function Wl.Full -> "full" | Wl.Smoke -> "smoke"

(* Set-up cost of a fresh process: it starts, builds the workload's
   inputs and reports the CPU seconds it has used (exec, runtime and
   module initialisation, input construction; all paid by a user on
   every run). CPU rather than wall time, so that waiting for a busy
   host's run queue does not count. The process then times the
   reference task by the same clock, on whichever vCPU it ran, and its
   set-up time is scaled by that. Median over [setup_spawns]. *)
let setup_seconds ~(w : Wl.t) ~scale ~seed =
  let share = setup_share scale in
  List.init (setup_spawns scale) (fun _ ->
      let argv =
        [|
          Sys.executable_name; "--setup-only"; "--workload"; w.name; "--seed";
          string_of_int seed; "--scale"; scale_arg scale;
        |]
      in
      let out, into = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin into Unix.stderr
      in
      Unix.close into;
      (* One line, read without a large buffer: garbage made here would
         show in the workload's host_peak_heap_mb. *)
      let ic = Unix.in_channel_of_descr out in
      let reply =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic)
      in
      let parse line = Scanf.sscanf_opt line "%f %f" (fun cpu calib -> (cpu, calib)) in
      match (Unix.waitpid [] pid, Option.bind reply parse) with
      | (_, Unix.WEXITED 0), Some (cpu, calib) -> Calib.scale ~share ~calib cpu
      | _ -> failwith "set-up process failed")
  |> Summary.median

(* --- Checking reps against the warm-up -------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  reference : (string, string) Hashtbl.t;
}

let fail t what =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  Printf.printf "FAIL %s\n%!" what

let check t ~label (rep : Wl.rep) =
  List.iter
    (fun (op : Wl.op) ->
      let problem =
        match (op.op_error, Hashtbl.find_opt t.reference op.op_name) with
        | Some e, _ -> Some e
        | None, Some d when d = op.op_digest -> None
        | None, Some _ -> Some "digest differs from the warm-up rep"
        | None, None -> Some "no warm-up reference"
      in
      match problem with
      | None -> t.attempted <- t.attempted + 1
      | Some p -> fail t (Printf.sprintf "%s %s: %s" label op.op_name p))
    rep.ops

let sim_digest (rep : Wl.rep) =
  Wl.digest (List.map (fun (op : Wl.op) -> op.op_name ^ "=" ^ op.op_digest) rep.ops)

(* --- One run ----------------------------------------------------------------- *)

type sample = { wall : float; alloc_mb : float; minor : int; major : int }

let timed_rep rep_fn =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let (rep : Wl.rep), wall = Layers.timed (fun () -> rep_fn Wl.plain) in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  ( rep,
    {
      wall;
      alloc_mb = (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1e6;
      minor = g1.minor_collections - g0.minor_collections;
      major = g1.major_collections - g0.major_collections;
    } )

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : Layers.metric list;
  figures : Layers.metric list;  (** simulated results, for reading. *)
  per_layer : Layers.metric list option;
}

let run_workload ~(w : Wl.t) ~scale ~seed ~seconds ~reps:(lo, hi) ~trace =
  Printf.printf "workload %s seed %d scale %s started %.3f\n%!" w.name seed
    (scale_arg scale) (now ());
  let setup_s = setup_seconds ~w ~scale ~seed in
  let rep_fn = w.prepare scale ~seed in
  let t = { attempted = 0; failed = 0; reference = Hashtbl.create 64 } in
  let warm = rep_fn Wl.plain in
  List.iter
    (fun (op : Wl.op) ->
      if op.op_error = None then Hashtbl.replace t.reference op.op_name op.op_digest)
    warm.ops;
  check t ~label:"warm-up" warm;
  let started = now () in
  (* Each rep sits between two timings of the reference task; the rep is
     scaled by their mean. A rep starts only if one as long as the last
     still ends within [seconds]. *)
  let share = rep_share scale in
  let rec loop acc n calib_before =
    let last = match acc with (s, _) :: _ -> s.wall | [] -> 0. in
    if n >= hi || (n >= lo && now () -. started +. last >= seconds) then List.rev acc
    else begin
      let rep, s = timed_rep rep_fn in
      let calib_after = Calib.seconds ~share () in
      check t ~label:(Printf.sprintf "rep %d" (n + 1)) rep;
      loop ((s, (calib_before +. calib_after) /. 2.) :: acc) (n + 1) calib_after
    end
  in
  let timed = loop [] 0 (Calib.seconds ~share ()) in
  let samples = List.map fst timed in
  let calibs = List.map snd timed in
  let walls = List.map (fun (s, calib) -> Calib.scale ~share ~calib s.wall) timed in
  let med f = Summary.median (List.map f samples) in
  let wall = Summary.median walls in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let m = Layers.m in
  let end_to_end =
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" wall;
      m "host_peak_heap_mb" "MB" heap_mb;
    ]
  in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.4f") xs) in
  Printf.printf "timed reps: n=%d\n  host wall s:      %s\n  reference task s: %s\n  wall_s per rep:   %s\n"
    (List.length samples)
    (show (List.map (fun s -> s.wall) samples))
    (show calibs) (show walls);
  Printf.printf "sim_digest %s\n" (sim_digest warm);
  let per_layer =
    Option.map
      (fun trace_file ->
        let metrics, slowest, root_ok =
          Layers.traced ~w ~rep_fn ~check:(check t) ~wall ~warm ~trace_file
        in
        Option.iter (Printf.printf "slowest point: %s\n") slowest;
        Option.iter (Printf.printf "wrote spans to %s\n") trace_file;
        if not root_ok then fail t "trace: root span differs from the traced rep by over 1%";
        metrics
        @ [
            m "host.alloc_mb_per_rep" "MB" (med (fun s -> s.alloc_mb));
            m "host.minor_gcs_per_rep" "count" (med (fun s -> float_of_int s.minor));
            m "host.major_gcs_per_rep" "count" (med (fun s -> float_of_int s.major));
            m "bench.ops_attempted" "count" (float_of_int t.attempted);
            m "bench.ops_failed" "count" (float_of_int t.failed);
            m "bench.wall_s_min" "s" (List.fold_left Float.min infinity walls);
            m "bench.wall_s_max" "s" (List.fold_left Float.max neg_infinity walls);
            m "bench.host_wall_s" "s" (med (fun s -> s.wall));
            m "bench.reference_task_s" "s" (Summary.median calibs);
          ])
      trace
  in
  {
    correct = t.failed = 0;
    attempted = t.attempted;
    failed = t.failed;
    end_to_end;
    figures = Layers.figures ~wall warm;
    per_layer;
  }

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (x : Layers.metric) -> Printf.printf "  %-34s %16.6g %s\n" x.name x.value x.unit)
    metrics

let json_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (x : Layers.metric) ->
                  (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
                metrics) );
       ])

(* The result line carries the end-to-end metrics, or with tracing the
   per-layer ones (which include the simulated figures). *)
let report r =
  print_metrics "end-to-end" r.end_to_end;
  (match r.per_layer with
  | Some ms -> print_metrics "per-layer" ms
  | None -> print_metrics "simulated results" r.figures);
  print_endline
    (json_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
       (Option.value r.per_layer ~default:r.end_to_end))

(* --- Smoke mode ---------------------------------------------------------------- *)

let spec_metrics spec key =
  match J.member key spec with
  | Some (J.List xs) ->
      List.filter_map
        (fun x ->
          match (J.member "name" x, J.member "unit" x) with
          | Some (J.String n), Some (J.String u) -> Some (n, u)
          | _ -> None)
        xs
  | _ -> failwith ("spec has no " ^ key ^ " list")

let smoke spec_file =
  let spec =
    match J.of_string (In_channel.with_open_bin spec_file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (spec_file ^ ": " ^ e)
  in
  let workloads =
    match J.member "workloads" spec with
    | Some (J.List xs) ->
        List.filter_map (fun x -> Option.bind (J.member "name" x) J.to_string_opt) xs
    | _ -> []
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare workloads <> List.sort compare (List.map (fun (w : Wl.t) -> w.name) Wl.all)
  then problem "spec workloads differ from the benchmark's";
  let same what w expected (got : Layers.metric list) =
    let got = List.map (fun (x : Layers.metric) -> (x.name, x.unit)) got in
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n got with
        | None -> problem "%s: %s metric %s not printed" w what n
        | Some u' when u' <> u -> problem "%s: %s has unit %s, spec says %s" w n u' u
        | Some _ -> ())
      expected;
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n expected) then problem "%s: %s metric %s not in spec" w what n)
      got
  in
  List.iter
    (fun (w : Wl.t) ->
      let r =
        run_workload ~w ~scale:Wl.Smoke ~seed:42 ~seconds:0. ~reps:(2, 2) ~trace:(Some None)
      in
      Printf.printf "smoke: %s %d operations, %d failed\n" w.name r.attempted r.failed;
      same "end_to_end" w.name (spec_metrics spec "end_to_end") r.end_to_end;
      same "per_layer" w.name (spec_metrics spec "per_layer") (Option.get r.per_layer);
      if r.failed > 0 then problem "%s: %d of %d operations failed" w.name r.failed r.attempted)
    Wl.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: every workload printed every spec metric; no operation failed"
  | ps ->
      List.iter (Printf.printf "smoke: %s\n") ps;
      exit 1

(* --- Command line ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed S [--seconds T] [--trace 0|1|FILE]\n\
    \       main.exe --smoke BENCHMARK.json\n\
     workloads:";
  List.iter (fun (w : Wl.t) -> Printf.eprintf "  %s\n" w.name) Wl.all;
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 15. in
  let trace = ref "0" and smoke_spec = ref None in
  (* Used by [setup_seconds] to start its set-up-only processes. *)
  let setup_only = ref false and scale = ref Wl.Full in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value (float_of_string_opt v) ~default:Float.nan;
        parse rest
    | "--trace" :: v :: rest -> trace := v; parse rest
    | "--smoke" :: v :: rest -> smoke_spec := Some v; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--scale" :: v :: rest ->
        scale := if v = "smoke" then Wl.Smoke else Wl.Full;
        parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %S\n" a;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!smoke_spec, Option.bind !workload Wl.find, !seed) with
  | Some spec, _, _ -> smoke spec
  | None, Some w, Some seed when !setup_only ->
      let (_ : Wl.variant -> Wl.rep) = w.prepare !scale ~seed in
      let setup = Sys.time () in
      Printf.printf "%.9f %.9f\n" setup
        (Calib.seconds ~clock:Sys.time ~share:(setup_share !scale) ())
  | None, Some w, Some seed when Float.is_finite !seconds && !seconds >= 0. ->
      let trace =
        match !trace with
        | "0" -> None
        | "1" ->
            let dir = Filename.concat "benchmark" "_out" in
            List.iter
              (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
              [ "benchmark"; dir ];
            Some (Some (Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed)))
        | file -> Some (Some file)
      in
      report
        (run_workload ~w ~scale:!scale ~seed ~seconds:!seconds ~reps:(min_reps, max_int)
           ~trace)
  | _ -> usage ()
