(* In-memory spans for the traced rep: name, start, end and parent id,
   kept until the run ends and then written as Chrome trace_event JSON.
   Recording is off by default, so [with_span] costs one branch in the
   timed reps. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root. *)
  name : string;
  start : float;  (** host seconds. *)
  mutable stop : float;
}

let now = Unix.gettimeofday
let recording = ref false
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let with_span name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    incr next_id;
    let s = { id = !next_id; parent; name; start = now (); stop = Float.nan } in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        stack := List.tl !stack;
        finished := s :: !finished)
      f
  end

(* Record every span [f] opens; returns [f]'s result and the spans in
   start order. *)
let record f =
  finished := [];
  stack := [];
  recording := true;
  let r = Fun.protect ~finally:(fun () -> recording := false) f in
  (r, List.sort (fun a b -> compare a.id b.id) !finished)

let duration s = s.stop -. s.start

let children spans s = List.filter (fun c -> c.parent = s.id) spans

(* Children run one after another on one thread, so the time they cover
   is the sum of their durations. *)
let self_time spans s =
  duration s
  -. List.fold_left (fun acc c -> acc +. duration c) 0. (children spans s)

(* Spans [depth] levels below the roots (0 = the roots). *)
let at_depth spans depth =
  let rec depth_of s =
    if s.parent < 0 then 0
    else
      match List.find_opt (fun p -> p.id = s.parent) spans with
      | Some p -> 1 + depth_of p
      | None -> 0
  in
  List.filter (fun s -> depth_of s = depth) spans

let to_chrome spans =
  let module J = Numa_trace.Json in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = J.Float (Float.round (x *. 1e7) /. 10.) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("ph", J.String "X");
                   ("ts", us (s.start -. t0));
                   ("dur", us (duration s));
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       [
                         ("id", J.Int s.id);
                         ("parent", J.Int s.parent);
                         ("self_us", us (self_time spans s));
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
    ]

let write_file path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Numa_trace.Json.to_string (to_chrome spans));
      output_char oc '\n')
