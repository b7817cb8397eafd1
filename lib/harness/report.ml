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
