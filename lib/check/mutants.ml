module LI = Cohort.Lock_intf
module Event = Numa_trace.Event

(* Each mutant is a deliberately broken variant of a real lock, kept as
   close to the genuine code as possible so the oracle — not an obvious
   structural difference — is what catches it. *)
module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Cohort.Instr.Make (M)
  module Bo = Cohort.Bo_lock.Make (M)
  module Mcs = Cohort.Mcs_lock.Make (M)

  (* The cohort transformation of C-BO-MCS with the may-pass-local check
     removed: the releaser passes within the cohort whenever a cohort
     waiter exists, regardless of the starvation limit. Unbounded batches
     — the cohort-handoff-limit oracle must object. *)
  module Skip_limit : LI.LOCK = struct
    module G = Bo.Global
    module L = Mcs.Local

    type t = {
      g : G.t;
      locals : L.t array;
      cfg : LI.config;
    }

    type thread = { gt : G.thread; lt : L.thread; ev : Cohort.Instr.t }

    let name = "C-BO-MCS!skip-limit"

    let create cfg =
      {
        g = G.create cfg;
        locals = Array.init cfg.LI.clusters (fun _ -> L.create cfg);
        cfg;
      }

    let register l ~tid ~cluster =
      {
        gt = G.register l.g ~tid ~cluster;
        lt = L.register l.locals.(cluster) ~tid ~cluster;
        ev = Cohort.Instr.make l.cfg ~tid ~cluster;
      }

    let acquire th =
      match L.acquire th.lt with
      | LI.Local_release ->
          I.emit th.ev Event.Acquire_local
      | LI.Global_release ->
          G.acquire th.gt;
          I.emit th.ev Event.Acquire_global

    let release th =
      (* BUG: no may-pass-local consultation — [alone?] alone decides. *)
      if not (L.alone th.lt) then begin
        I.emit th.ev Event.Handoff_within_cohort;
        L.release th.lt LI.Local_release
      end
      else begin
        I.emit th.ev Event.Handoff_global;
        G.release th.gt;
        L.release th.lt LI.Global_release
      end
  end

  (* Ticket lock whose ticket grab is a read-then-write instead of an
     atomic fetch-and-add: a lost-update race. Two threads that read the
     same ticket both get granted together — mutual exclusion breaks, but
     only on a schedule that interleaves the two halves. *)
  module Lost_ticket : LI.LOCK = struct
    type t = {
      request : int M.cell;
      grant : int M.cell;
      cfg : LI.config;
    }

    type thread = { l : t; ev : Cohort.Instr.t }

    let name = "TKT!lost-ticket"

    let create cfg =
      let ln = M.line ~name:"tkt" () in
      { request = M.cell ln 0; grant = M.cell ln 0; cfg }

    let register l ~tid ~cluster =
      { l; ev = Cohort.Instr.make l.cfg ~tid ~cluster }

    let acquire th =
      (* BUG: the increment is not atomic. *)
      let tkt = M.read th.l.request in
      M.write th.l.request (tkt + 1);
      I.emit th.ev Event.Enqueue;
      ignore (M.wait_until th.l.grant (fun g -> g = tkt));
      I.emit th.ev Event.Acquire_global

    let release th =
      I.emit th.ev Event.Handoff_global;
      let g = M.read th.l.grant in
      M.write th.l.grant (g + 1)
  end

  (* MCS that resets its node's state to busy only AFTER publishing the
     node to the predecessor. If the predecessor grants in that window,
     the grant is overwritten and the thread parks forever: a deadlock
     that needs a schedule delaying one write past two of another
     thread's. *)
  module Late_reset : LI.LOCK = struct
    type t = {
      tail : Mcs.node option M.cell;
      cfg : LI.config;
    }

    type thread = { l : t; node : Mcs.node; ev : Cohort.Instr.t }

    let name = "MCS!late-reset"

    let create cfg = { tail = M.cell' ~name:"mcs.tail" None; cfg }

    let register l ~tid ~cluster =
      { l; node = Mcs.make_node (); ev = Cohort.Instr.make l.cfg ~tid ~cluster }

    let acquire th =
      let n = th.node in
      M.write n.Mcs.next None;
      let p = M.swap th.l.tail (Mcs.some n) in
      I.emit th.ev Event.Enqueue;
      (match p with
      | None -> ()
      | Some p ->
          M.write p.Mcs.next (Mcs.some n);
          (* BUG: the busy reset belongs before the tail swap; here it can
             wipe a grant the predecessor published meanwhile. *)
          M.write n.Mcs.nstate Mcs.nbusy;
          ignore
            (M.wait_until n.Mcs.nstate (fun s -> s = Mcs.ngranted_local)));
      I.emit th.ev Event.Acquire_global

    let release th =
      I.emit th.ev Event.Handoff_global;
      Mcs.pass_or_close th.l.tail th.node ~code:Mcs.ngranted_local
        ~may_close:true
  end

  (* GCR admission wrapper whose releaser, when surrendering the last
     active slot, skips the passive-queue re-check. A thread that parked
     while that active still held its slot (so the parker's own rescue
     found the gate occupied and stood down) is never promoted: a lost
     wakeup the engine reports as deadlock, on the default schedule
     already — the releaser-side rescue is the only path that wakes a
     passive list formed under an occupied gate. *)
  module Gcr_dropped_unpark =
    Cohort.Gcr_lock.Wrap_gen (M) (Mcs.Plain)
      (struct
        let drop_rescue = true
      end)

  let skip_limit = (module Skip_limit : LI.LOCK)

  let all =
    [
      skip_limit;
      (module Lost_ticket : LI.LOCK);
      (module Late_reset : LI.LOCK);
      (module Gcr_dropped_unpark : LI.LOCK);
    ]

  let find name =
    List.find_opt (fun (module L : LI.LOCK) -> L.name = name) all
end
