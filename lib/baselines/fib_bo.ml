(** Test-and-test-and-set lock with Fibonacci backoff — the paper's
    "Fib-BO" baseline from the memcached and malloc experiments
    (Tables 1 and 2). Identical to the BO lock except for the slower
    backoff growth curve. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : Cohort.Lock_intf.LOCK =
struct
  module LI = Cohort.Lock_intf
  module I = Cohort.Instr.Make (M)

  type t = { state : int M.cell; cfg : LI.config }

  type thread = { l : t; back : Cohort.Backoff.t; ev : Cohort.Instr.t }

  let name = "Fib-BO"
  let create cfg = { state = M.cell' ~name:"fibbo.state" 0; cfg }

  let register l ~tid ~cluster =
    {
      l;
      back =
        Cohort.Backoff.make ~policy:Cohort.Backoff.Fibonacci
          ~min:LI.bo_min ~max:LI.bo_max ~salt:tid ();
      ev = Cohort.Instr.make l.cfg ~tid ~cluster;
    }

  let acquire th =
    let state = th.l.state in
    let rec loop () =
      ignore (M.wait_until state (fun v -> v = 0));
      if M.cas state ~expect:0 ~desire:1 then Cohort.Backoff.reset th.back
      else begin
        M.pause (Cohort.Backoff.next th.back);
        loop ()
      end
    in
    loop ();
    I.emit th.ev Numa_trace.Event.Acquire_global

  let release th =
    I.emit th.ev Numa_trace.Event.Handoff_global;
    M.write th.l.state 0
end
