(* Argument converters shared by the command-line binaries. Out-of-range
   counts, windows and thresholds are usage errors (exit 124), rejected
   before anything runs: a zero thread count reaches [Engine.run] or
   [Nat_runtime.run], a zero budget or window checks or measures nothing,
   and a negative threshold flags every entry. So is a thread count
   listed twice, a patience beyond [max_patience_ns], an unknown lock
   name and an output path in a missing directory. *)

open Cmdliner

(* [conv]'s values above [zero] (at or above it when not [strict]). *)
let bounded ~strict ~zero what conv =
  let parse s =
    match Arg.conv_parser conv (String.trim s) with
    | Ok n when if strict then n > zero else n >= zero -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "%s %S must be a %s number" what s
               (if strict then "positive" else "non-negative")))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive what = bounded ~strict:true ~zero:0 what Arg.int
let non_negative what = bounded ~strict:false ~zero:0 what Arg.int

(* The patience ceiling, 10^15 ns (about 11.6 simulated days). An
   abortable lock's deadline is [now () + patience]: a patience near
   [max_int] wraps that sum negative, so every timed attempt aborts at
   once, and so would a microsecond count whose conversion to ns wraps. *)
let max_patience_ns = 1_000_000_000_000_000

(* A patience in units of [ns] nanoseconds, from 0 to the ceiling. *)
let patience ~ns =
  let most = max_patience_ns / ns in
  let parse s =
    match Arg.conv_parser Arg.int (String.trim s) with
    | Ok n when n >= 0 && n <= most -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "patience %S must be between 0 and %d" s most))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A comma-separated list of distinct positive thread counts. A repeated
   count would print a duplicate row and write two artifact entries
   under one (experiment, lock, threads) key, which readers collapse. *)
let thread_counts =
  let parse s =
    match
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    with
    | [] -> Error (`Msg (Printf.sprintf "empty thread-count list %S" s))
    | items -> (
        match
          List.fold_right
            (fun x acc ->
              Result.bind (Arg.conv_parser (positive "thread count") x)
                (fun n -> Result.map (List.cons n) acc))
            items (Ok [])
        with
        | Ok ns when List.length (List.sort_uniq compare ns) < List.length ns
          ->
            Error
              (`Msg (Printf.sprintf "thread-count list %S repeats a count" s))
        | r -> r)
  in
  let print ppf l =
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

(* One of [names], matched without regard to case and returned as
   spelled in [names]. *)
let lock names =
  let parse s =
    let key = String.lowercase_ascii s in
    match List.find_opt (fun n -> String.lowercase_ascii n = key) names with
    | Some n -> Ok n
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown lock %S (expected one of: %s)" s
               (String.concat " " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let topology =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Numa_base.Topology.of_spec s)
  in
  let print ppf t = Format.fprintf ppf "%s" t.Numa_base.Topology.name in
  Arg.conv (parse, print)

let is_dir p = Sys.file_exists p && Sys.is_directory p

(* An optional output path, checked before anything runs: a FILE's
   directory must exist, and a DIR (created by the run if missing) must
   be a directory or have an existing parent. Otherwise the first write
   raises [Sys_error] — with a Chrome trace or an artifact, only after
   the whole run. *)
let output ?(dir = false) names ~doc =
  let parse s =
    let parent = Filename.dirname s in
    if dir && Sys.file_exists s then
      if Sys.is_directory s then Ok s
      else Error (`Msg (Printf.sprintf "%S is not a directory" s))
    else if is_dir parent then Ok s
    else
      Error (`Msg (Printf.sprintf "%S: directory %S does not exist" s parent))
  in
  let docv = if dir then "DIR" else "FILE" in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_string))) None
    & info names ~docv ~doc)
