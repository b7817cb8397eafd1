(** HBO: the hierarchical backoff lock of Radović & Hagersten (HPCA'03).

    A test-and-test-and-set lock whose word records the {e cluster} of the
    current holder. A contender that sees the lock held by its own cluster
    backs off briefly (it has a cache-local chance of grabbing the lock
    next); one that sees a remote holder backs off for much longer. This
    creates node affinity without queues — simple, but unfair and
    notoriously sensitive to the four backoff parameters, which the
    paper's evaluation demonstrates by running both a microbenchmark-tuned
    and an application-tuned parameterisation (Tables 1-2).

    Unlike the queue locks, HBO waiters poll with backoff rather than
    monitor a cache line: every re-check after a backoff is a fresh
    (charged) read, and failed CAS attempts hammer the lock line — its
    instability under load is emergent, not scripted. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module LI = Cohort.Lock_intf
  module I = Cohort.Instr.Make (M)

  let free = -1

  type t = { state : int M.cell; cfg : LI.config }

  type thread = {
    l : t;
    ev : Cohort.Instr.t;
    local_back : Cohort.Backoff.t;
    remote_back : Cohort.Backoff.t;
  }

  let make_thread l ~tid ~cluster =
    let cfg = l.cfg in
    {
      l;
      ev = Cohort.Instr.make cfg ~tid ~cluster;
      local_back =
        Cohort.Backoff.make ~min:cfg.LI.hbo_local_min ~max:cfg.LI.hbo_local_max
          ~salt:tid ();
      remote_back =
        Cohort.Backoff.make ~min:cfg.LI.hbo_remote_min
          ~max:cfg.LI.hbo_remote_max ~salt:(tid + 7919) ();
    }

  (* One acquisition attempt round: returns true when the lock was won. *)
  let attempt th =
    let state = th.l.state in
    let v = M.read state in
    if v = free && M.cas state ~expect:free ~desire:th.ev.cluster then begin
      Cohort.Backoff.reset th.local_back;
      Cohort.Backoff.reset th.remote_back;
      true
    end
    else begin
      let v = M.read state in
      let delay =
        if v = th.ev.cluster then Cohort.Backoff.next th.local_back
        else Cohort.Backoff.next th.remote_back
      in
      M.pause delay;
      false
    end

  module Lock : LI.LOCK with type t = t and type thread = thread = struct
    type nonrec t = t
    type nonrec thread = thread

    let name = "HBO"
    let create cfg = { state = M.cell' ~name:"hbo.state" free; cfg }
    let register = make_thread

    let acquire th =
      let rec loop () = if not (attempt th) then loop () in
      loop ();
      I.emit th.ev Numa_trace.Event.Acquire_global

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      M.write th.l.state free
  end

  module Abortable : LI.ABORTABLE_LOCK with type t = t and type thread = thread = struct
    type nonrec t = t
    type nonrec thread = thread

    let name = "A-HBO"
    let create cfg = { state = M.cell' ~name:"ahbo.state" free; cfg }
    let register = make_thread

    (* The paper: "a thread aborts its lock acquisition by simply
       returning a failure flag from the lock acquire operation" —
       trivially abortable because no shared state records waiters. *)
    let try_acquire th ~patience =
      let deadline = M.now () + patience in
      let rec loop () =
        if attempt th then true
        else if M.now () >= deadline then false
        else loop ()
      in
      let won = loop () in
      I.emit th.ev
        (if won then Numa_trace.Event.Acquire_global
         else Numa_trace.Event.Abort);
      won

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      M.write th.l.state free
  end
end
