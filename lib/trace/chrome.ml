let us at = Json.Float (float_of_int at /. 1_000.)

let instant (e : Event.t) =
  Json.Obj
    [
      ("name", Json.String (Event.kind_to_string e.kind));
      ("cat", Json.String "lock");
      ("ph", Json.String "i");
      ("ts", us e.at);
      ("pid", Json.Int e.cluster);
      ("tid", Json.Int e.tid);
      ("s", Json.String "t");
    ]

let complete ~(acq : Event.t) ~(rel : Event.t) =
  Json.Obj
    [
      ("name", Json.String "critical section");
      ("cat", Json.String "lock");
      ("ph", Json.String "X");
      ("ts", us acq.at);
      ("dur", Json.Float (float_of_int (rel.at - acq.at) /. 1_000.));
      ("pid", Json.Int acq.cluster);
      ("tid", Json.Int acq.tid);
      ( "args",
        Json.Obj
          [
            ("acquired", Json.String (Event.kind_to_string acq.kind));
            ("released", Json.String (Event.kind_to_string rel.kind));
          ] );
    ]

let metadata events =
  let clusters = Hashtbl.create 8 and threads = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      Hashtbl.replace clusters e.cluster ();
      Hashtbl.replace threads (e.cluster, e.tid) ())
    events;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) tbl []) in
  List.map
    (fun c ->
      Json.Obj
        [
          ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int c);
          ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "cluster %d" c)) ]);
        ])
    (sorted clusters)
  @ List.map
      (fun (c, t) ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int c);
            ("tid", Json.Int t);
            ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "thread %d" t)) ]);
          ])
      (sorted threads)

let of_events events =
  (* Pair each thread's acquire with its next release to form a complete
     ("X") slice; aborts and starvation-limit hits become instants. *)
  let pending = Hashtbl.create 64 in
  let slices = ref [] in
  List.iter
    (fun (e : Event.t) ->
      if Event.is_acquire e.kind then Hashtbl.replace pending e.tid e
      else if Event.is_release e.kind then (
        match Hashtbl.find_opt pending e.tid with
        | Some acq ->
            Hashtbl.remove pending e.tid;
            slices := complete ~acq ~rel:e :: !slices
        | None -> slices := instant e :: !slices)
      else slices := instant e :: !slices)
    events;
  (* A still-held lock at capture end renders as an instant; sorted so
     the export is deterministic (Hashtbl order is not). *)
  Hashtbl.fold (fun _ acq l -> acq :: l) pending []
  |> List.sort (fun (a : Event.t) (b : Event.t) -> compare (a.at, a.tid) (b.at, b.tid))
  |> List.iter (fun acq -> slices := instant acq :: !slices);
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ns");
      ("traceEvents", Json.List (metadata events @ List.rev !slices));
    ]

let write path ring =
  let events = Ring.events ring in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true (of_events events));
      output_char oc '\n');
  match Ring.dropped ring with
  | 0 -> None
  | dropped ->
      let kept = List.length events in
      Some
        (Printf.sprintf
           "%s keeps the last %d of %d events (%d dropped); a .jsonl trace \
            keeps them all"
           path kept (kept + dropped) dropped)

let open_trace = function
  | None -> (Sink.noop, fun () -> None)
  | Some path when Filename.check_suffix path ".jsonl" ->
      let sink = Jsonl.to_file path in
      (sink, fun () -> Sink.close sink; None)
  | Some path ->
      let ring = Ring.create ~capacity:1_048_576 in
      (Ring.sink ring, fun () -> write path ring)
