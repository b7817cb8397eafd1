(* Command-line driver regenerating every figure and table of the paper:
   one subcommand per entry of Harness.Catalogue.commands, its flags
   given by the entry's knobs and their defaults by the entry's.

   Examples:
     repro figs                     # figures 2-5 from one sweep
     repro fig6 --patience-us 300
     repro table1 --mix write
     repro table2 --threads 1,2,4,8,16,32,64,128,255
     repro all --duration-ms 20 --csv-dir out/
     repro quick --emit-bench-json BENCH_head.json   # the CI artifact *)

open Cmdliner
module C = Harness.Catalogue
module W = Apps.Kv_workload

let threads_conv =
  let parse s =
    match
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    with
    | [] -> Error (`Msg (Printf.sprintf "empty thread-count list %S" s))
    | items ->
        List.fold_right
          (fun x acc ->
            Result.bind (Arg.conv_parser (Cli.positive "thread count") x)
              (fun n -> Result.map (List.cons n) acc))
          items (Ok [])
  in
  let print ppf l =
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

(* Unknown lock names are usage errors, caught before anything runs. *)
let lock_conv names =
  let parse s =
    if List.mem s names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown lock %S (expected one of: %s)" s
             (String.concat " " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let mix_conv =
  Arg.enum
    [ ("read", [ W.read_heavy ]); ("mixed", [ W.mixed ]);
      ("write", [ W.write_heavy ]);
      ("all", [ W.read_heavy; W.mixed; W.write_heavy ]) ]

let opt c default names docv doc =
  Arg.(value & opt c default & info names ~docv ~doc)

let ms = 1_000_000

(* The term a knob contributes: a parameter update, defaulted from [d]. *)
let knob_term (d : C.params) knob : (C.params -> C.params) Term.t =
  let set f arg = Term.(const f $ arg) in
  match knob with
  | C.Topology ->
      set (fun topology p -> { p with C.topology })
      @@ opt Cli.topology d.topology [ "topology" ] "SPEC"
           "Machine model: t5440|small|rack, CxT for a flat machine (e.g. \
            4x64), or RxSxT for a rack-of-sockets hierarchy (e.g. 2x2x64). \
            Thread counts beyond its capacity run oversubscribed."
  | Threads ->
      set (fun threads p -> { p with C.threads })
      @@ opt threads_conv d.threads [ "threads" ] "N,N,..."
           "Thread counts to sweep."
  | N_threads doc ->
      set (fun n_threads p -> { p with C.n_threads })
      @@ opt (Cli.positive "thread count") d.n_threads [ "n-threads" ] "N" doc
  | Duration ->
      set (fun v p -> { p with C.duration = v * ms })
      @@ opt (Cli.positive "duration") (d.duration / ms) [ "duration-ms" ] "MS"
           "Simulated measurement window per data point, in milliseconds."
  | Seed ->
      set (fun seed p -> { p with C.seed })
      @@ opt Arg.int d.seed [ "seed" ] "SEED" "PRNG seed."
  | Patience ->
      set (fun v p -> { p with C.patience = v * 1_000 })
      @@ opt (Cli.non_negative "patience") (d.patience / 1_000)
           [ "patience-us" ] "US"
           "Abortable-lock patience in microseconds (Figure 6)."
  | Mix ->
      set (fun mixes p -> { p with C.mixes })
      @@ opt mix_conv d.mixes [ "mix" ] "MIX"
           "Table 1 get/set mix: read|mixed|write|all."
  | Locks (doc, names) ->
      set (fun locks p -> { p with C.locks })
      @@ Arg.(value & pos_all (lock_conv names) d.locks & info [] ~docv:"LOCK" ~doc)
  | Check doc ->
      set (fun check p -> { p with C.check })
      @@ Arg.(value & flag & info [ "check" ] ~doc)
  | Csv | Trace | Emit | Profile | Fastpath -> Term.const Fun.id

let file_opt names doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let csv_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write CSV files into $(docv).")

let trace_arg =
  file_opt [ "trace" ]
    "Write a lock-event trace of the runs to $(docv): a .jsonl suffix \
     streams JSONL (one event per line), anything else writes a Chrome \
     trace_event file for chrome://tracing / Perfetto."

let emit_arg =
  file_opt [ "emit-bench-json" ]
    "Write a versioned benchmark artifact (throughput plus trace-derived \
     lock metrics per lock and thread count) to $(docv)."

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Also print a per-site coherence attribution table (remote \
           transfers, invalidations, stall-ns split) for every lock at the \
           highest thread count of the sweep.")

(* Artifacts must be byte-identical either way (ci.sh diffs them); the
   flag exists so that check is cheap to run. *)
let fastpath_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "fastpath" ] ~docv:"on|off"
        ~doc:
          "Engine fast path for local cache hits. It never changes a \
           simulated result, only host time.")

let cmd (e : C.entry) =
  let params =
    List.fold_left
      (fun acc k ->
        Term.(const (fun f g p -> g (f p)) $ acc $ knob_term e.defaults k))
      (Term.const Fun.id) e.knobs
  in
  let only k arg none = if List.mem k e.knobs then arg else Term.const none in
  let run f csv_dir trace emit profile fastpath =
    Numasim.Engine.set_fastpath fastpath;
    C.run ?csv_dir ?trace ?emit ~profile e (f e.defaults)
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(
      const run $ params $ only Csv csv_dir_arg None $ only Trace trace_arg None
      $ only Emit emit_arg None $ only Profile profile_arg false
      $ only Fastpath fastpath_arg true)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'Lock Cohorting: A General Technique \
         for Designing NUMA Locks' (PPoPP'12) on a simulated 4-socket NUMA \
         machine."
  in
  exit (Cmd.eval (Cmd.group info (List.map cmd C.commands)))
