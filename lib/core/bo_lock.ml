(** Test-and-test-and-set lock with exponential backoff (the paper's "BO"
    lock, after Agarwal & Cherian), plus its cohort adapters:

    - {!Make.Plain}: the classic TATAS-BO lock.
    - {!Make.Global}: thread-oblivious by construction (any thread may
      store 0 into the lock word). Per the paper (section 4.1.1), threads
      contending on the {e global} BO lock of a cohort lock spin without
      backing off, like a bare-bones TATAS lock, because it is expected to
      be lightly contended.
    - {!Make.Local}: the 3-state local BO lock of C-BO-BO (section 3.1),
      with the [successor-exists] flag providing cohort detection. The
      flag lives on the same cache line as the lock word, as in the paper
      (the line is only contended intra-cluster). *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  (* Lock-word states. [free_global] doubles as the plain lock's
     "unlocked" state. *)
  let free_global = 0
  let busy = 1
  let free_local = 2

  module Plain : Lock_intf.LOCK = struct
    type t = { state : int M.cell; cfg : Lock_intf.config }

    type thread = { l : t; back : Backoff.t; ev : Instr.t }

    let name = "BO"
    let create cfg = { state = M.cell' ~name:"bo.state" free_global; cfg }

    let register l ~tid ~cluster =
      {
        l;
        back =
          Backoff.make ~min:Lock_intf.bo_min ~max:Lock_intf.bo_max
            ~salt:tid ();
        ev = Instr.make l.cfg ~tid ~cluster;
      }

    let acquire th =
      let state = th.l.state in
      let rec loop () =
        ignore (M.wait_until state (fun v -> v = free_global));
        if M.cas state ~expect:free_global ~desire:busy then
          Backoff.reset th.back
        else begin
          M.pause (Backoff.next th.back);
          loop ()
        end
      in
      loop ();
      I.emit th.ev Numa_trace.Event.Acquire_global

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      M.write th.l.state free_global
  end

  module Global : Lock_intf.GLOBAL = struct
    type t = { state : int M.cell }
    type thread = { l : t }

    let create _cfg = { state = M.cell' ~name:"bo.global" free_global }
    let register l ~tid:_ ~cluster:_ = { l }

    let acquire th =
      let state = th.l.state in
      let rec loop () =
        ignore (M.wait_until state (fun v -> v = free_global));
        if not (M.cas state ~expect:free_global ~desire:busy) then loop ()
      in
      loop ()

    let release th = M.write th.l.state free_global
  end

  module Local : Lock_intf.LOCAL = struct
    type t = {
      state : int M.cell;
      succ_exists : bool M.cell;  (* same line as [state], as in the paper *)
      cfg : Lock_intf.config;
    }

    type thread = { l : t; back : Backoff.t }

    let create cfg =
      let ln = M.line ~name:"bo.local" () in
      { state = M.cell ln free_global; succ_exists = M.cell ln false; cfg }

    let register l ~tid ~cluster:_ =
      {
        l;
        back =
          Backoff.make ~min:Lock_intf.bo_min ~max:Lock_intf.bo_max
            ~salt:tid ();
      }

    let acquire th =
      let l = th.l in
      let rec loop () =
        (* Announce ourselves before attempting the CAS so the current
           holder's alone? sees us; re-asserted every retry because the
           winner resets the flag. *)
        M.write l.succ_exists true;
        let s = M.wait_until l.state (fun v -> v <> busy) in
        if M.cas l.state ~expect:s ~desire:busy then begin
          M.write l.succ_exists false;
          Backoff.reset th.back;
          if s = free_local then Lock_intf.Local_release
          else Lock_intf.Global_release
        end
        else begin
          M.pause (Backoff.next th.back);
          loop ()
        end
      in
      loop ()

    (* May report "alone" when a successor's announcement was overwritten
       by the winner's reset — an allowed false positive that at worst
       causes an unnecessary global release (section 3.1). It can never
       report a successor that will not arrive: in the non-abortable lock
       a thread that set the flag waits until it wins. *)
    let alone th = not (M.read th.l.succ_exists)

    let release th kind =
      M.write th.l.state
        (match kind with
        | Lock_intf.Local_release -> free_local
        | Lock_intf.Global_release -> free_global)
  end
end
