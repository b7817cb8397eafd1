(** Test-and-test-and-set lock with exponential backoff (the paper's "BO"
    lock, after Agarwal & Cherian), plus its cohort adapters:

    - {!Make.Plain}: the classic TATAS-BO lock, the exponential instance
      of {!Make.Tatas} (Fib-BO is its Fibonacci instance).
    - {!Make.Global}: thread-oblivious by construction (any thread may
      store 0 into the lock word). Per the paper (section 4.1.1), threads
      contending on the {e global} BO lock of a cohort lock spin without
      backing off, like a bare-bones TATAS lock, because it is expected to
      be lightly contended.
    - {!Make.Local}: the 3-state local BO lock of C-BO-BO (section 3.1),
      with the [successor-exists] flag providing cohort detection. The
      flag lives on the same cache line as the lock word, as in the paper
      (the line is only contended intra-cluster).
    - {!Make.Abortable_local}: the local lock of A-C-BO-BO
      (section 3.6.1), the same three states with timeouts. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  (* Lock-word states. [free_global] doubles as the plain lock's
     "unlocked" state. *)
  let free_global = 0
  let busy = 1
  let free_local = 2

  module Tatas (P : sig
    val name : string
    val site : string
    val policy : Backoff.policy
  end) : Lock_intf.LOCK = struct
    type t = { state : int M.cell; cfg : Lock_intf.config }

    type thread = { l : t; back : Backoff.t; ev : Instr.t }

    let name = P.name
    let create cfg = { state = M.cell' ~name:P.site free_global; cfg }

    let register l ~tid ~cluster =
      {
        l;
        back =
          Backoff.make ~policy:P.policy ~min:Lock_intf.bo_min
            ~max:Lock_intf.bo_max ~salt:tid ();
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

  module Plain = Tatas (struct
    let name = "BO"
    let site = "bo.state"
    let policy = Backoff.Exponential
  end)

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

  (* An aborting waiter retracts the successor-exists flag; the
     releaser double-checks it after publishing a local release and
     reclaims a release nobody will take. The word is a fresh box per
     transition and every CAS expects the box it read, so the reclaim
     CAS can only take back the release it published (no ABA). A waiter
     that aborts after the double-check and finds the word still in
     release-local state rescues it: it becomes the holder and releases
     globally, so the global lock is never stranded. *)
  module Abortable_local : Lock_intf.ABORTABLE_LOCAL = struct
    type word = { ls : int }

    let mk ls = { ls }

    type t = {
      state : word M.cell;
      succ_exists : bool M.cell;  (* same line as [state] *)
    }

    type thread = { l : t; back : Backoff.t }

    let create _cfg =
      let ln = M.line ~name:"bo.alocal" () in
      { state = M.cell ln (mk free_global); succ_exists = M.cell ln false }

    let register l back = { l; back }

    let try_acquire th ~deadline =
      let l = th.l in
      let rec loop () =
        let remaining = deadline - M.now () in
        if remaining <= 0 then abort ()
        else begin
          M.write l.succ_exists true;
          match
            M.wait_until_for l.state (fun w -> w.ls <> busy)
              ~timeout:remaining
          with
          | None -> abort ()
          | Some w ->
              if M.cas l.state ~expect:w ~desire:(mk busy) then begin
                M.write l.succ_exists false;
                Backoff.reset th.back;
                Lock_intf.Granted
                  (if w.ls = free_local then Lock_intf.Local_release
                   else Lock_intf.Global_release)
              end
              else begin
                M.pause (Backoff.next th.back);
                loop ()
              end
        end
      and abort () =
        M.write l.succ_exists false;
        let w = M.read l.state in
        if w.ls = free_local && M.cas l.state ~expect:w ~desire:(mk busy)
        then Lock_intf.Rescued
        else Lock_intf.Aborted
      in
      loop ()

    let pass th ~may_pass ~commit =
      let l = th.l in
      if may_pass () && M.read l.succ_exists then begin
        commit ();
        let handoff = mk free_local in
        M.write l.state handoff;
        (* Double-check (section 3.6.1). A failed reclaim CAS means a
           waiter took the handoff. *)
        if
          (not (M.read l.succ_exists))
          && M.cas l.state ~expect:handoff ~desire:(mk free_global)
        then Lock_intf.Reclaimed
        else Lock_intf.Passed
      end
      else Lock_intf.Declined

    let release th = M.write th.l.state (mk free_global)
  end
end
