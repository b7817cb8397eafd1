module LI = Cohort.Lock_intf
module Event = Numa_trace.Event
module Sink = Numa_trace.Sink

type checks = {
  me : bool;
  handoff : bool;
  fifo : bool;
  fifo_intra : bool;
  admission : bool;
}

let me_only =
  {
    me = true;
    handoff = false;
    fifo = false;
    fifo_intra = false;
    admission = false;
  }

let fifo_locks = [ "TKT"; "MCS"; "CLH"; "PTL" ]

(* CNA reorders its queue by socket, so global FIFO deliberately does
   not hold; what its prefix-move preserves is per-socket enqueue order,
   checked by [fifo_intra]. Its counted flush also honours the cohort
   starvation bound, so the handoff oracle applies. *)
let intra_fifo_locks = [ "CNA" ]

(* GCR wrappers park the overflow, so neither global nor intra-cluster
   FIFO holds; what they guarantee instead is the admission bound
   (event-counted active set <= gcr_max_active at every trace point, no
   admit/unpark of a parked thread) and the rotation starvation bound
   (a parked thread is promoted within a queue-position-proportional
   number of gcr_rotate_every-grant periods). Every GCR wrapper is
   registered under a "GCR-" name. *)
let for_lock name =
  {
    me = true;
    handoff =
      String.starts_with ~prefix:"C-" name || List.mem name intra_fifo_locks;
    fifo = List.mem name fifo_locks;
    fifo_intra = List.mem name intra_fifo_locks;
    admission = String.starts_with ~prefix:"GCR-" name;
  }

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  type state = {
    lock : string;
    checks : checks;
    owner : int Atomic.t;  (* holding tid; -1 = free *)
    acquiring : bool array;  (* tid -> inside acquire *)
    cluster_of : int array;  (* tid -> cluster (registration) *)
    fifo_q : int Queue.t;  (* tids in queue-join order *)
    intra_q : (int, int Queue.t) Hashtbl.t;
        (* per-cluster queue-join order, for fifo_intra *)
    mutable run : int;  (* consecutive local handoffs of current batch *)
    limit : int option;  (* may-pass-local bound, when counted *)
    mutable gcr_active : int;  (* event-counted GCR active set *)
    mutable gcr_exits : int;  (* total Gcr_exit events (= grants) *)
    gcr_parked : (int, int * int) Hashtbl.t;
        (* parked tid -> (queue length, gcr_exits) at park time *)
    gcr_k : int;  (* admission bound (config.gcr_max_active) *)
    gcr_rotate : int;  (* rotation period (config.gcr_rotate_every) *)
  }

  let cluster_queue st c =
    match Hashtbl.find_opt st.intra_q c with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add st.intra_q c q;
        q

  (* Trace-stream checks. The handler runs at the emission site — host
     code inside the same engine event as the emitting memory operation —
     so under the simulator it observes states in linearisation order.
     The [fifo] and [handoff] oracles rely on that serialisation and are
     only meaningful on a deterministic runtime. *)
  let on_event st (ev : Event.t) =
    match ev.kind with
    | Event.Enqueue ->
        if st.checks.fifo then Queue.push ev.tid st.fifo_q;
        if st.checks.fifo_intra then
          Queue.push ev.tid (cluster_queue st ev.cluster)
    | Event.Acquire_global | Event.Acquire_local ->
        if st.checks.fifo_intra then begin
          (* Acquisition order within a cluster must match that
             cluster's queue-join order, even when the lock reorders
             across clusters (CNA's guarantee). *)
          match Queue.take_opt (cluster_queue st ev.cluster) with
          | Some head when head = ev.tid -> ()
          | Some head ->
              Violation.fail ~other:head ~lock:st.lock ~invariant:"fifo-intra"
                ~tid:ev.tid ~at:ev.at
                (Printf.sprintf
                   "t%d acquired but t%d of the same cluster %d joined the \
                    queue first"
                   ev.tid head ev.cluster)
          | None ->
              Violation.fail ~lock:st.lock ~invariant:"fifo-intra" ~tid:ev.tid
                ~at:ev.at "acquire without a preceding enqueue"
        end;
        if st.checks.fifo then begin
          (match Queue.take_opt st.fifo_q with
          | Some head when head = ev.tid -> ()
          | Some head ->
              Violation.fail ~other:head ~lock:st.lock ~invariant:"fifo"
                ~tid:ev.tid ~at:ev.at
                (Printf.sprintf
                   "t%d acquired but t%d joined the queue first" ev.tid head)
          | None ->
              Violation.fail ~lock:st.lock ~invariant:"fifo" ~tid:ev.tid
                ~at:ev.at "acquire without a preceding enqueue");
          ()
        end;
        if st.checks.handoff && ev.kind = Event.Acquire_global then st.run <- 0
    | Event.Handoff_within_cohort ->
        if st.checks.handoff then begin
          (* Legality (a): someone from this cluster must be waiting.
             Every waiter observable by a sound [alone?] is a thread
             blocked inside [acquire], which the wrapper has marked. *)
          let waiter_exists = ref false in
          Array.iteri
            (fun tid acq ->
              if acq && tid <> ev.tid && st.cluster_of.(tid) = ev.cluster then
                waiter_exists := true)
            st.acquiring;
          if not !waiter_exists then
            Violation.fail ~lock:st.lock ~invariant:"cohort-handoff-empty"
              ~tid:ev.tid ~at:ev.at
              (Printf.sprintf
                 "t%d handed off within cluster %d but no cohort thread is \
                  acquiring"
                 ev.tid ev.cluster);
          (* Legality (b): the starvation limit bounds the batch. *)
          st.run <- st.run + 1;
          match st.limit with
          | Some max when st.run > max ->
              Violation.fail ~lock:st.lock ~invariant:"cohort-handoff-limit"
                ~tid:ev.tid ~at:ev.at
                (Printf.sprintf
                   "%d consecutive local handoffs exceed the may-pass-local \
                    bound %d"
                   st.run max)
          | _ -> ()
        end
    | Event.Handoff_global -> if st.checks.handoff then st.run <- 0
    | Event.Gcr_admit | Event.Gcr_unpark ->
        if st.checks.admission then begin
          if ev.kind = Event.Gcr_admit && Hashtbl.mem st.gcr_parked ev.tid then
            Violation.fail ~lock:st.lock ~invariant:"gcr-admission" ~tid:ev.tid
              ~at:ev.at "gate admission of a thread that is still parked";
          (if ev.kind = Event.Gcr_unpark then
             match Hashtbl.find_opt st.gcr_parked ev.tid with
             | None ->
                 Violation.fail ~lock:st.lock ~invariant:"gcr-admission"
                   ~tid:ev.tid ~at:ev.at "unpark of a thread that never parked"
             | Some (qlen, exits_then) ->
                 Hashtbl.remove st.gcr_parked ev.tid;
                 (* Starvation bound: every release emits one Gcr_exit,
                    and a rotation fires every gcr_rotate grants, so a
                    waiter behind [qlen] others must be promoted within
                    (qlen + 2) periods (the +2 absorbs the in-flight
                    grant at park time and the promote-vs-rescue race). *)
                 let waited = st.gcr_exits - exits_then in
                 if waited > (qlen + 2) * st.gcr_rotate then
                   Violation.fail ~lock:st.lock
                     ~invariant:"gcr-rotation-fairness" ~tid:ev.tid ~at:ev.at
                     (Printf.sprintf
                        "parked at queue length %d but promoted only after %d \
                         grants (rotation period %d)"
                        qlen waited st.gcr_rotate));
          st.gcr_active <- st.gcr_active + 1;
          if st.gcr_active > st.gcr_k then
            Violation.fail ~lock:st.lock ~invariant:"gcr-admission" ~tid:ev.tid
              ~at:ev.at
              (Printf.sprintf "%d threads active exceeds the admission bound %d"
                 st.gcr_active st.gcr_k)
        end
    | Event.Gcr_park ->
        if st.checks.admission then begin
          if Hashtbl.mem st.gcr_parked ev.tid then
            Violation.fail ~lock:st.lock ~invariant:"gcr-admission" ~tid:ev.tid
              ~at:ev.at "park of a thread that is already parked";
          Hashtbl.replace st.gcr_parked ev.tid
            (Hashtbl.length st.gcr_parked, st.gcr_exits)
        end
    | Event.Gcr_exit ->
        if st.checks.admission then begin
          st.gcr_active <- st.gcr_active - 1;
          st.gcr_exits <- st.gcr_exits + 1;
          if st.gcr_active < 0 then
            Violation.fail ~lock:st.lock ~invariant:"gcr-admission" ~tid:ev.tid
              ~at:ev.at "active-set exit without a matching admission"
        end
    | Event.Abort | Event.Starvation_limit_hit -> ()

  let wrap ?(checks = me_only) (module L : LI.LOCK) : (module LI.LOCK) =
    let module C = struct
      type t = { inner : L.t; st : state }

      type thread = {
        l : t;
        th : L.thread;
        tid : int;
        mutable holds : bool;
      }

      let name = L.name ^ "+oracle"

      let create cfg =
        let st =
          {
            lock = L.name;
            checks;
            owner = Atomic.make (-1);
            acquiring = Array.make cfg.LI.max_threads false;
            cluster_of = Array.make cfg.LI.max_threads 0;
            fifo_q = Queue.create ();
            intra_q = Hashtbl.create 8;
            run = 0;
            limit =
              (match cfg.LI.handoff_policy with
              | LI.Counted | LI.Counted_or_timed _ ->
                  Some cfg.LI.max_local_handoffs
              | LI.Timed _ | LI.Unbounded -> None);
            gcr_active = 0;
            gcr_exits = 0;
            gcr_parked = Hashtbl.create 8;
            gcr_k = max 1 cfg.LI.gcr_max_active;
            gcr_rotate = max 1 cfg.LI.gcr_rotate_every;
          }
        in
        let cfg =
          if
            checks.handoff || checks.fifo || checks.fifo_intra
            || checks.admission
          then
            {
              cfg with
              LI.trace = Sink.tee (Sink.make (on_event st)) cfg.LI.trace;
            }
          else cfg
        in
        { inner = L.create cfg; st }

      let register l ~tid ~cluster =
        if tid < Array.length l.st.cluster_of then
          l.st.cluster_of.(tid) <- cluster;
        { l; th = L.register l.inner ~tid ~cluster; tid; holds = false }

      let acquire w =
        let st = w.l.st in
        if w.holds then
          Violation.fail ~lock:st.lock ~invariant:"reentrant-acquire"
            ~tid:w.tid ~at:(M.now ())
            "acquire on a handle that already holds";
        if w.tid < Array.length st.acquiring then
          st.acquiring.(w.tid) <- true;
        L.acquire w.th;
        if st.checks.me then begin
          let prev = Atomic.exchange st.owner w.tid in
          if prev <> -1 then
            Violation.fail ~other:prev ~lock:st.lock
              ~invariant:"mutual-exclusion" ~tid:w.tid ~at:(M.now ())
              (Printf.sprintf "t%d entered while t%d still holds" w.tid prev)
        end;
        if w.tid < Array.length st.acquiring then
          st.acquiring.(w.tid) <- false;
        w.holds <- true

      let release w =
        let st = w.l.st in
        if not w.holds then
          Violation.fail ~lock:st.lock ~invariant:"release-without-hold"
            ~tid:w.tid ~at:(M.now ()) "release on a handle that does not hold";
        w.holds <- false;
        if st.checks.me then begin
          if not (Atomic.compare_and_set st.owner w.tid (-1)) then
            Violation.fail
              ~other:(Atomic.get st.owner)
              ~lock:st.lock ~invariant:"mutual-exclusion" ~tid:w.tid
              ~at:(M.now ())
              (Printf.sprintf "t%d releasing but owner is t%d" w.tid
                 (Atomic.get st.owner))
        end;
        L.release w.th
    end in
    (module C)
end
