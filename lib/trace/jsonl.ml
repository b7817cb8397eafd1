let event_to_json (e : Event.t) =
  Json.Obj
    [
      ("at", Json.Int e.at);
      ("tid", Json.Int e.tid);
      ("cluster", Json.Int e.cluster);
      ("kind", Json.String (Event.kind_to_string e.kind));
    ]

let event_of_json j =
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let ( let* ) = Result.bind in
  let* at = field "at" Json.to_int in
  let* tid = field "tid" Json.to_int in
  let* cluster = field "cluster" Json.to_int in
  let* kind_s = field "kind" Json.to_string_opt in
  match Event.kind_of_string kind_s with
  | Some kind -> Ok { Event.at; tid; cluster; kind }
  | None -> Error (Printf.sprintf "unknown event kind %S" kind_s)

let to_file path =
  let oc = open_out path in
  let mu = Mutex.create () in
  Sink.make
    ~flush:(fun () -> flush oc)
    ~close:(fun () -> close_out oc)
    (fun ev ->
      let line = Json.to_string (event_to_json ev) in
      Mutex.lock mu;
      output_string oc line;
      output_char oc '\n';
      Mutex.unlock mu)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go acc (lineno + 1)
        | line -> (
            match Result.bind (Json.of_string line) event_of_json with
            | Ok ev -> go (ev :: acc) (lineno + 1)
            | Error msg ->
                Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go [] 1)
