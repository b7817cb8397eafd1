(** Ticket lock (Mellor-Crummey & Scott) and its cohort adapters
    (paper section 3.2).

    The lock is a pair of counters, [request] and [grant], on one cache
    line (the classic layout). It is trivially thread-oblivious — any
    thread may increment [grant] — and cohort detection is a comparison
    of the two counters. The local adapter adds the paper's [top-granted]
    flag: set by a releaser that passes the lock within the cohort, reset
    by the thread that takes possession. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  module Plain : Lock_intf.LOCK = struct
    type t = { request : int M.cell; grant : int M.cell; cfg : Lock_intf.config }

    type thread = { l : t; ev : Instr.t }

    let name = "TKT"

    let create cfg =
      let ln = M.line ~name:"tkt" () in
      { request = M.cell ln 0; grant = M.cell ln 0; cfg }

    let register l ~tid ~cluster =
      { l; ev = Instr.make l.cfg ~tid ~cluster }

    let acquire th =
      let tkt = M.fetch_and_add th.l.request 1 in
      (* The FAA is the queue-join linearisation point; [Enqueue] lets
         the FIFO oracle check acquire order against join order. *)
      I.emit th.ev Numa_trace.Event.Enqueue;
      ignore (M.wait_until th.l.grant (fun g -> g = tkt));
      I.emit th.ev Numa_trace.Event.Acquire_global

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      let g = M.read th.l.grant in
      M.write th.l.grant (g + 1)
  end

  module Global : Lock_intf.GLOBAL = struct
    type t = { request : int M.cell; grant : int M.cell }
    type thread = { l : t }

    let create _cfg =
      let ln = M.line ~name:"tkt.global" () in
      { request = M.cell ln 0; grant = M.cell ln 0 }

    let register l ~tid:_ ~cluster:_ = { l }

    let acquire th =
      let tkt = M.fetch_and_add th.l.request 1 in
      ignore (M.wait_until th.l.grant (fun g -> g = tkt))

    (* While a thread holds the lock, [grant] equals its ticket, so the
       releaser — whichever thread it is — just bumps [grant]. *)
    let release th =
      let g = M.read th.l.grant in
      M.write th.l.grant (g + 1)
  end

  module Local : Lock_intf.LOCAL = struct
    type t = {
      request : int M.cell;
      grant : int M.cell;
      top_granted : bool M.cell;
    }

    type thread = { l : t }

    let create _cfg =
      let ln = M.line ~name:"tkt.local" () in
      {
        request = M.cell ln 0;
        grant = M.cell ln 0;
        top_granted = M.cell ln false;
      }

    let register l ~tid:_ ~cluster:_ = { l }

    let acquire th =
      let l = th.l in
      let tkt = M.fetch_and_add l.request 1 in
      ignore (M.wait_until l.grant (fun g -> g = tkt));
      if M.read l.top_granted then begin
        M.write l.top_granted false;
        Lock_intf.Local_release
      end
      else Lock_intf.Global_release

    (* The holder's ticket is the current [grant]; waiting cohorts exist
       exactly when more tickets than [grant]+1 have been issued. A ticket
       taken is a thread committed to waiting (non-abortable), so there
       are no dangerous false negatives. *)
    let alone th = M.read th.l.request = M.read th.l.grant + 1

    let release th kind =
      let l = th.l in
      let g = M.read l.grant in
      (match kind with
      | Lock_intf.Local_release -> M.write l.top_granted true
      | Lock_intf.Global_release -> ());
      M.write l.grant (g + 1)
  end
end
