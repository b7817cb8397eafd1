(* A/B decision rule over saved benchmark runs.

     compare.exe PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]...
                 [--spec BENCHMARK.json]

   Each directory holds the standard output of untraced main.exe runs,
   one file per run. Runs pair up per workload in start order (parent
   run i with change run i); there must be at least 10 pairs, the two
   runs of a pair must share a seed, and the side that runs first must
   alternate from pair to pair.

   - A claim needs the change to win at least 9 of every 10 pairs (ties
     count for neither) and its median to beat the parent's by more than
     the parent's interquartile range.
   - Every other (metric, workload) may be worse than the parent's median
     by at most the metric's bound in the spec. When either side's spread
     (interquartile range over median) exceeds the bound, the result is
     "unresolved" unless every change run beats every parent run.
   - The failed share of operations must not rise.
   - Simulated outcomes are deterministic per seed, so the sim_digest of
     each pair is compared too; a change is reported, not judged.

   Prints one row per workload; exits 1 on a regression, a missed claim
   or a rise in failures, 2 on unusable input. *)

module J = Numa_trace.Json

type run = {
  workload : string;
  seed : int;
  started : float;
  digest : string;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let parse_run file =
  let lines =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let header =
    List.find_map
      (fun l ->
        try Scanf.sscanf l "workload %s seed %d scale %s started %f" (fun w s _ t -> Some (w, s, t))
        with _ -> None)
      lines
  in
  let digest =
    List.find_map (fun l -> try Scanf.sscanf l "sim_digest %s" Option.some with _ -> None) lines
  in
  let result = match List.rev lines with l :: _ -> J.of_string l | [] -> Error "empty" in
  match (header, result) with
  | Some (workload, seed, started), Ok j -> (
      let int k = Option.bind (J.member k j) J.to_int in
      match (int "attempted", int "failed", J.member "metrics" j) with
      | Some attempted, Some failed, Some (J.Obj ms) ->
          let metrics =
            List.filter_map
              (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) J.to_float))
              ms
          in
          Some
            {
              workload;
              seed;
              started;
              digest = Option.value digest ~default:"";
              attempted;
              failed;
              metrics;
            }
      | _ -> None)
  | _ -> None

let read_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then die "%s is not a directory" dir;
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f -> parse_run (Filename.concat dir f))

type bound = { metric : string; better_lower : bool; bound : float }

let read_spec file =
  let spec =
    match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" file e
  in
  match J.member "end_to_end" spec with
  | Some (J.List xs) ->
      List.filter_map
        (fun x ->
          match
            ( Option.bind (J.member "name" x) J.to_string_opt,
              Option.bind (J.member "better" x) J.to_string_opt,
              Option.bind (J.member "bound" x) J.to_float )
          with
          | Some metric, Some better, Some bound ->
              Some { metric; better_lower = better = "lower"; bound }
          | _ -> None)
        xs
  | _ -> die "%s has no end_to_end list" file

(* Positive when [c] is better than [p]. *)
let gain b ~p ~c = if b.better_lower then p -. c else c -. p

type verdict = Ok_within | Regression | Unresolved | Claim_met | Claim_missed

let verdict_string = function
  | Ok_within -> "ok"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Claim_met -> "CLAIM MET"
  | Claim_missed -> "CLAIM MISSED"

let judge b ~claim pairs =
  let ps = List.map fst pairs and cs = List.map snd pairs in
  let mp = Summary.median ps and mc = Summary.median cs in
  let q1, _, q3 = Summary.quartiles ps in
  let wins = List.length (List.filter (fun (p, c) -> gain b ~p ~c > 0.) pairs) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain b ~p ~c > 0.) ps) cs
  in
  let worse = -.gain b ~p:mp ~c:mc /. Float.abs mp in
  let v =
    if claim then
      if 10 * wins >= 9 * List.length pairs && gain b ~p:mp ~c:mc > q3 -. q1 then Claim_met
      else Claim_missed
    else if Float.max (Summary.spread ps) (Summary.spread cs) > b.bound && not all_better
    then Unresolved
    else if worse > b.bound then Regression
    else Ok_within
  in
  (v, mp, mc, worse, wins)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse (dirs, claims, spec) = function
    | [] -> (List.rev dirs, claims, spec)
    | "--claim" :: c :: rest -> (
        match String.index_opt c '@' with
        | Some i ->
            parse
              (dirs, (String.sub c 0 i, String.sub c (i + 1) (String.length c - i - 1)) :: claims, spec)
              rest
        | None -> die "--claim wants METRIC@WORKLOAD, got %S" c)
    | "--spec" :: f :: rest -> parse (dirs, claims, f) rest
    | d :: rest -> parse (d :: dirs, claims, spec) rest
  in
  let dirs, claims, spec = parse ([], [], "BENCHMARK.json") args in
  let parent_dir, change_dir =
    match dirs with
    | [ p; c ] -> (p, c)
    | _ -> die "usage: compare.exe PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]... [--spec FILE]"
  in
  let bounds = read_spec spec in
  let has_e2e r = List.for_all (fun b -> List.mem_assoc b.metric r.metrics) bounds in
  let parent = List.filter has_e2e (read_dir parent_dir)
  and change = List.filter has_e2e (read_dir change_dir) in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  if workloads = [] then die "no untraced runs found";
  let bad = ref false in
  Printf.printf "%-20s %5s  %-16s %s\n" "workload" "pairs" "fail_frac p/c" "metrics (change vs parent median)";
  List.iter
    (fun w ->
      let side runs =
        List.filter (fun r -> r.workload = w) runs
        |> List.sort (fun a b -> Float.compare a.started b.started)
      in
      let p = side parent and c = side change in
      let n = min (List.length p) (List.length c) in
      let take k xs = List.filteri (fun i _ -> i < k) xs in
      let pairs = List.combine (take n p) (take n c) in
      let problems = ref [] in
      let problem s = problems := s :: !problems in
      if List.length p <> List.length c then
        problem (Printf.sprintf "%d parent runs vs %d change runs" (List.length p) (List.length c));
      if n < 10 then problem (Printf.sprintf "needs at least 10 pairs, has %d" n);
      if List.exists (fun (a, b) -> a.seed <> b.seed) pairs then problem "a pair mixes seeds";
      let firsts = List.map (fun (a, b) -> a.started < b.started) pairs in
      let rec alternates = function
        | a :: (b :: _ as rest) -> a <> b && alternates rest
        | _ -> true
      in
      if not (alternates firsts) then problem "the side that runs first does not alternate";
      let frac runs =
        Summary.ratio (Summary.sum_int (List.map (fun r -> r.failed) runs))
          (Summary.sum_int (List.map (fun r -> r.attempted) runs))
      in
      let fp = frac p and fc = frac c in
      if fc > fp then problem "fail_frac rose";
      let changed = List.length (List.filter (fun (a, b) -> a.digest <> b.digest) pairs) in
      let cells =
        if n < 2 then []
        else
          List.map
            (fun b ->
              let claim = List.mem (b.metric, w) claims in
              let v, mp, mc, worse, wins =
                judge b ~claim
                  (List.map (fun (a, x) -> (List.assoc b.metric a.metrics, List.assoc b.metric x.metrics)) pairs)
              in
              if v = Regression || v = Claim_missed then bad := true;
              Printf.sprintf "%s %.4g->%.4g (%s by %.1f%%, change won %d/%d) %s" b.metric mp
                mc
                (if worse > 0. then "worse" else "better")
                (100. *. Float.abs worse) wins n (verdict_string v))
            bounds
      in
      if !problems <> [] then bad := true;
      Printf.printf "%-20s %5d  %-16s %s; sim_digest %s%s\n" w n
        (Printf.sprintf "%.3g/%.3g" fp fc)
        (String.concat "; " cells)
        (if changed = 0 then "identical" else Printf.sprintf "changed in %d/%d pairs" changed n)
        (match !problems with
        | [] -> ""
        | ps -> "; PROBLEM: " ^ String.concat ", " (List.rev ps)))
    workloads;
  List.iter
    (fun (m, w) ->
      if not (List.mem w workloads && List.exists (fun b -> b.metric = m) bounds) then begin
        Printf.printf "claim %s@%s names no measured metric and workload\n" m w;
        bad := true
      end)
    claims;
  exit (if !bad then 1 else 0)
