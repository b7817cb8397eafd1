type t = {
  events : int;
  acquires : int;
  local_acquires : int;
  global_acquires : int;
  handoffs_within_cohort : int;
  handoffs_global : int;
  aborts : int;
  starvation_limit_hits : int;
  migrations : int;
  migration_rate : float;
  batches : int;
  batch_mean : float;
  batch_p50 : float;
  batch_max : int;
  hold_p50 : float;
  hold_p99 : float;
  hold_mean : float;
  wait_p50 : float;
  wait_p99 : float;
}

module Migrations = struct
  type t = { mutable last_cluster : int; mutable count : int }

  let create () = { last_cluster = -1; count = 0 }

  let note t ~cluster =
    if t.last_cluster <> cluster then begin
      if t.last_cluster >= 0 then t.count <- t.count + 1;
      t.last_cluster <- cluster
    end

  let count t = t.count
end

let quantile q xs =
  (* Exact quantile over the sorted sample (host-side; samples are the
     captured window, typically thousands of points). *)
  match Array.length xs with
  | 0 -> Float.nan
  | n ->
      let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
      xs.(max 0 (min (n - 1) i))

let mean xs =
  match Array.length xs with
  | 0 -> Float.nan
  | n -> Array.fold_left ( +. ) 0. xs /. float_of_int n

let of_events ?(wait_p50 = Float.nan) ?(wait_p99 = Float.nan) events =
  let n_events = List.length events in
  let acquires = ref 0
  and local_acquires = ref 0
  and global_acquires = ref 0
  and handoffs_local = ref 0
  and handoffs_global = ref 0
  and aborts = ref 0
  and starvation = ref 0 in
  let migrations = Migrations.create () in
  (* Batch = run of consecutive within-cohort handoffs closed by a global
     handoff (length counts acquisitions, so a lone global handoff is a
     batch of 1). *)
  let batch_run = ref 0 in
  let batches = ref [] in
  let holds = ref [] in
  let pending : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Acquire_local | Acquire_global ->
          incr acquires;
          if e.kind = Event.Acquire_local then incr local_acquires
          else incr global_acquires;
          Migrations.note migrations ~cluster:e.cluster;
          Hashtbl.replace pending e.tid e.at
      | Handoff_within_cohort | Handoff_global ->
          (match Hashtbl.find_opt pending e.tid with
          | Some t0 ->
              Hashtbl.remove pending e.tid;
              holds := float_of_int (e.at - t0) :: !holds
          | None -> ());
          if e.kind = Event.Handoff_within_cohort then begin
            incr handoffs_local;
            incr batch_run
          end
          else begin
            incr handoffs_global;
            batches := (!batch_run + 1) :: !batches;
            batch_run := 0
          end
      | Abort -> incr aborts
      | Starvation_limit_hit -> incr starvation
      | Enqueue | Gcr_admit | Gcr_exit | Gcr_park | Gcr_unpark -> ())
    events;
  let batch_arr =
    Array.of_list (List.rev_map float_of_int !batches)
  in
  Array.sort compare batch_arr;
  let hold_arr = Array.of_list !holds in
  Array.sort compare hold_arr;
  let migrations = Migrations.count migrations in
  {
    events = n_events;
    acquires = !acquires;
    local_acquires = !local_acquires;
    global_acquires = !global_acquires;
    handoffs_within_cohort = !handoffs_local;
    handoffs_global = !handoffs_global;
    aborts = !aborts;
    starvation_limit_hits = !starvation;
    migrations;
    migration_rate =
      (if !acquires = 0 then 0.
       else float_of_int migrations /. float_of_int !acquires);
    batches = Array.length batch_arr;
    batch_mean = mean batch_arr;
    batch_p50 = quantile 0.5 batch_arr;
    batch_max =
      (if Array.length batch_arr = 0 then 0
       else int_of_float batch_arr.(Array.length batch_arr - 1));
    hold_p50 = quantile 0.5 hold_arr;
    hold_p99 = quantile 0.99 hold_arr;
    hold_mean = mean hold_arr;
    wait_p50;
    wait_p99;
  }

let render_timeline ?(width = 80) events =
  let t_end = List.fold_left (fun m (e : Event.t) -> max m e.at) 1 events in
  let col t = min (width - 1) (t * width / t_end) in
  let buf = Bytes.make width '.' in
  let rec go = function
    | [] -> ()
    | (e : Event.t) :: rest ->
        if Event.is_acquire e.kind then begin
          let upto =
            match
              List.find_opt (fun (r : Event.t) -> Event.is_release r.kind) rest
            with
            | Some r -> r.at
            | None -> t_end
          in
          let c0 = col e.at in
          Bytes.fill buf c0
            (max c0 (col upto) - c0 + 1)
            (Char.chr (Char.code '0' + (e.cluster mod 10)))
        end;
        go rest
  in
  go events;
  Bytes.to_string buf

let to_fields m =
  [
    ("trace_events", float_of_int m.events);
    ("acquires", float_of_int m.acquires);
    ("local_acquires", float_of_int m.local_acquires);
    ("global_acquires", float_of_int m.global_acquires);
    ("handoffs_within_cohort", float_of_int m.handoffs_within_cohort);
    ("handoffs_global", float_of_int m.handoffs_global);
    ("trace_aborts", float_of_int m.aborts);
    ("starvation_limit_hits", float_of_int m.starvation_limit_hits);
    ("trace_migrations", float_of_int m.migrations);
    ("migration_rate", m.migration_rate);
    ("batches", float_of_int m.batches);
    ("batch_mean", m.batch_mean);
    ("batch_p50", m.batch_p50);
    ("batch_max", float_of_int m.batch_max);
    ("hold_p50_ns", m.hold_p50);
    ("hold_p99_ns", m.hold_p99);
    ("hold_mean_ns", m.hold_mean);
    ("wait_p50_ns", m.wait_p50);
    ("wait_p99_ns", m.wait_p99);
  ]
