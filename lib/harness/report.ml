(** Plain-text table/series rendering and CSV export for the experiment
    harness. Output mirrors the paper's figures (series over thread
    counts, one column per lock) and tables (rows per thread count). *)

let fmt_si v =
  let a = abs_float v in
  if a >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else if a >= 10. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let fmt_fixed2 v = Printf.sprintf "%.2f" v
let fmt_fixed1 v = Printf.sprintf "%.1f" v

type table = {
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
  t_fmt : float -> string;
}

(* First column the x value (thread count), then one column per lock. *)
let print_series t =
  let x_label = t.t_xlabel and columns = t.t_columns in
  let ncols = List.length columns in
  let widths = Array.make (ncols + 1) (String.length x_label) in
  List.iteri
    (fun i c -> widths.(i + 1) <- max (String.length c) 6)
    columns;
  let cells =
    List.map
      (fun (x, vs) ->
        let row =
          Array.append
            [| string_of_int x |]
            (Array.map (fun v -> if Float.is_nan v then "-" else t.t_fmt v) vs)
        in
        Array.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row;
        row)
      t.t_rows
  in
  Format.printf "@.=== %s ===@." t.t_title;
  let pad i s = Printf.sprintf "%*s" widths.(i) s in
  let header =
    String.concat "  " (List.mapi (fun i c -> pad (i + 1) c) columns)
  in
  Format.printf "%s  %s@." (pad 0 x_label) header;
  List.iter
    (fun row ->
      let line =
        String.concat "  "
          (List.mapi (fun i s -> pad i s) (Array.to_list row))
      in
      Format.printf "%s@." line)
    cells;
  Format.printf "@."

let csv_of_series t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (String.concat "," (t.t_xlabel :: t.t_columns));
  Buffer.add_char b '\n';
  List.iter
    (fun (x, vs) ->
      Buffer.add_string b (string_of_int x);
      Array.iter
        (fun v ->
          Buffer.add_char b ',';
          Buffer.add_string b
            (if Float.is_nan v then "" else Printf.sprintf "%.6g" v))
        vs;
      Buffer.add_char b '\n')
    t.t_rows;
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* The engine's event ledger, per acquisition counted in the window. *)
let print_classes (r : Bench_core.result) =
  if r.event_classes <> [] then begin
    let per n = float_of_int n /. float_of_int r.iterations in
    Printf.printf
      "\n-- %s @ %d threads: engine events / acquisition by class --\n"
      r.lock_name r.n_threads;
    Printf.printf "  %-10s %10s %10s\n" "class" "inlined" "scheduled";
    let row cls i s =
      Printf.printf "  %-10s %10.3f %10.3f\n" cls (per i) (per s)
    in
    let ti, ts =
      List.fold_left
        (fun (ti, ts) (c : Numa_base.Runtime_intf.event_class) ->
          row c.ec_class c.ec_inlined c.ec_scheduled;
          (ti + c.ec_inlined, ts + c.ec_scheduled))
        (0, 0) r.event_classes
    in
    row "total" ti ts;
    Option.iter
      (fun (q : Numa_base.Runtime_intf.queue_tiers) ->
        Printf.printf "  queue tier: near %.3f  coarse %.3f  overflow %.3f\n"
          (per q.qt_near) (per q.qt_coarse) (per q.qt_overflow))
      r.queue_tiers;
    flush stdout
  end

let print_profile (r : Bench_core.result) =
  (match r.profile with
  | None -> ()
  | Some p ->
      let acquires = r.iterations in
      Printf.printf "\n-- %s @ %d threads: coherence attribution --\n"
        r.lock_name r.n_threads;
      Format.printf "%a" Numa_trace.Profile.pp p;
      Printf.printf
        "remote transfers / acquisition = %.3f   invalidations / release = \
         %.3f\n%!"
        (Numa_trace.Profile.remote_transfers_per_acquire p ~acquires)
        (Numa_trace.Profile.invalidations_per_release p ~releases:acquires));
  print_classes r

let err_pct (r : Bench_core.result) =
  match r.predicted with
  | Some p -> 100. *. p.Numa_trace.Predict.err
  | None -> Float.nan

let print_predictions results =
  let ranked =
    List.stable_sort
      (fun a b ->
        (* |err| descending; nan (no prediction) sorts last. *)
        let key r =
          let e = Float.abs (err_pct r) in
          if Float.is_nan e then Float.neg_infinity else e
        in
        Float.compare (key b) (key a))
      results
  in
  Printf.printf "\npredicted vs measured throughput (LBench), worst first:\n";
  Printf.printf "  %-12s %4s  %11s  %11s  %7s  %9s ns  %8s ns\n" "lock" "thr"
    "measured" "predicted" "err" "service" "handoff";
  List.iter
    (fun (r : Bench_core.result) ->
      match r.predicted with
      | None ->
          Printf.printf "  %-12s %4d  %11.3e  %11s  %7s\n" r.lock_name
            r.n_threads r.throughput "-" "-"
      | Some p ->
          Printf.printf
            "  %-12s %4d  %11.3e  %11.3e  %+6.1f%%  %9.1f     %8.1f\n"
            r.lock_name r.n_threads r.throughput p.Numa_trace.Predict.throughput
            (100. *. p.Numa_trace.Predict.err)
            p.Numa_trace.Predict.service_ns p.Numa_trace.Predict.handoff_ns)
    ranked
