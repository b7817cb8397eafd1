type deviation = { at : int; pick : int }
type t = deviation list

let default = []

let to_string = function
  | [] -> "default"
  | ds ->
      String.concat ","
        (List.map (fun d -> Printf.sprintf "%d:%d" d.at d.pick) ds)

let of_string s =
  if s = "" || s = "default" then Some []
  else
    let parse_one part =
      match String.index_opt part ':' with
      | None -> None
      | Some i -> (
          let a = String.sub part 0 i in
          let p = String.sub part (i + 1) (String.length part - i - 1) in
          match (int_of_string_opt a, int_of_string_opt p) with
          | Some at, Some pick when at >= 0 && pick >= 1 -> Some { at; pick }
          | _ -> None)
    in
    let parts = String.split_on_char ',' (String.trim s) in
    let rec build last acc = function
      | [] -> Some (List.rev acc)
      | part :: rest -> (
          match parse_one (String.trim part) with
          | Some d when d.at > last -> build d.at (d :: acc) rest
          | _ -> None)
    in
    build (-1) [] parts

let pick_at t at =
  match List.find_opt (fun d -> d.at = at) t with
  | Some d -> d.pick
  | None -> 0

type step = {
  s_dp : int;
  s_time : int;
  s_tid : int;
  s_what : string;
  s_pick : int;
  s_n : int;
}

let pp_interleaving ppf steps =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      let dp = if s.s_dp < 0 then "    " else Printf.sprintf "#%-3d" s.s_dp in
      Format.fprintf ppf "%s %8dns  t%d  %-24s" dp s.s_time s.s_tid s.s_what;
      if s.s_pick > 0 then
        Format.fprintf ppf "  << deviation: ran candidate %d of %d" s.s_pick
          s.s_n
      else if s.s_n > 1 then Format.fprintf ppf "  (%d runnable)" s.s_n;
      Format.fprintf ppf "@,")
    steps;
  Format.fprintf ppf "@]"
