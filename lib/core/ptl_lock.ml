(** Partition ticket lock (PTL), after hisat's [ptl.hpp] — a ticket
    lock derived from this paper's problem statement: the classic ticket
    lock's single grant word is invalidated in every waiter's cache on
    every release. PTL spreads the grant over [max_threads] slots, one
    cache line each; a waiter with ticket [t] spins on slot
    [t mod partitions], so a release invalidates exactly one spinner's
    line instead of all of them.

    The trade is memory: request word + one line per partition, versus
    one line total for TKT — the profiler's distinct-line footprint
    makes this visible (see `repro profile`). Strict global FIFO, like
    TKT, so the checker applies the full FIFO oracle.

    The C++ original keeps the granted ticket in a non-atomic member of
    the lock; here it lives in the acquiring thread's handle, which is
    race-free by construction and substrate-agnostic. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module I = Instr.Make (M)

  module Plain : Lock_intf.LOCK = struct
    type t = {
      request : int M.cell;
      slots : int M.cell array;
          (* slot [i] holds the newest granted ticket congruent to [i];
             tickets are granted in order, so [slots.(t mod n) = t]
             exactly while ticket [t] may hold the lock. *)
      cfg : Lock_intf.config;
    }

    type thread = { l : t; ev : Instr.t; mutable ticket : int }

    let name = "PTL"

    let create cfg =
      let partitions = max 1 cfg.Lock_intf.max_threads in
      {
        request = M.cell' ~name:"ptl.request" 0;
        (* One private line per slot — the whole point of the lock. All
           slots share the "ptl.slot" site label so the profiler shows
           the partition array as one row with its distinct-line count. *)
        slots = Array.init partitions (fun _ -> M.cell' ~name:"ptl.slot" 0);
        cfg;
      }

    let register l ~tid ~cluster =
      { l; ev = Instr.make l.cfg ~tid ~cluster; ticket = 0 }

    let acquire th =
      let t = M.fetch_and_add th.l.request 1 in
      th.ticket <- t;
      (* The FAA is the queue-join linearisation point (FIFO oracle). *)
      I.emit th.ev Numa_trace.Event.Enqueue;
      let slot = th.l.slots.(t mod Array.length th.l.slots) in
      ignore (M.wait_until slot (fun v -> v = t));
      I.emit th.ev Numa_trace.Event.Acquire_global

    let release th =
      I.emit th.ev Numa_trace.Event.Handoff_global;
      let t = th.ticket in
      let n = Array.length th.l.slots in
      M.write th.l.slots.((t + 1) mod n) (t + 1)
  end
end
