(** A spin-then-park (blocking) lock and its cohort adapters.

    The paper notes the transformation "could be as easily applied to
    blocking-locks" (section 2.1) but never builds one; this module does.
    The base lock is a futex-style word (free / busy) whose waiters spin
    briefly and then park, paying a kernel-trap cost to sleep and a
    wakeup cost to resume.

    - {!Make.Global}: thread-oblivious by construction (any thread may
      store the free state).
    - {!Make.Plain}: the blocking mutex — {!Make.Global} under the name
      ["BLK"].
    - {!Make.Local}: 3-state release word plus cohort detection through a
      waiter counter: acquirers announce themselves with a fetch-and-add
      {e before} first attempting the lock and retract after winning, so
      [alone?] can only err in the harmless direction (reporting no
      cohort while one is arriving forces an unnecessary global release;
      reporting a cohort implies a committed, non-abortable waiter).

    The resulting C-BLK-BLK lock (see {!Cohort_locks.Make.c_blk_blk}) parks
    the {e tail} of a cluster's waiters while the head of the cohort
    passes the lock locally — the natural NUMA-aware shape for blocking
    locks. *)

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  let free_global = 0
  let busy = 1
  let free_local = 2
  let spin_before_park = 3_000 (* ns *)
  let park_cost = 800 (* ns: kernel trap to sleep *)
  let resume_cost = 2_500 (* ns: wakeup + dispatch *)

  let park cell pred =
    M.pause park_cost;
    let v = M.wait_until cell pred in
    M.pause resume_cost;
    v

  let spin_then_park cell pred =
    match M.wait_until_for cell pred ~timeout:spin_before_park with
    | Some v -> v
    | None -> park cell pred

  (* Wait for [state] to leave [busy]; returns the observed non-busy value. *)
  let await state = spin_then_park state (fun v -> v <> busy)

  module Global : Lock_intf.GLOBAL = struct
    type t = { state : int M.cell }
    type thread = { l : t }

    let create _cfg = { state = M.cell' ~name:"blk.global" free_global }
    let register l ~tid:_ ~cluster:_ = { l }

    let acquire th =
      let state = th.l.state in
      let rec loop () =
        let s = await state in
        if not (M.cas state ~expect:s ~desire:busy) then loop ()
      in
      loop ()

    let release th = M.write th.l.state free_global
  end

  (* Thread-obliviousness costs the blocking lock nothing, so the plain
     mutex is the global one under a name. *)
  module Plain : Lock_intf.LOCK = struct
    include Global

    let name = "BLK"
  end

  module Local : Lock_intf.LOCAL = struct
    type t = {
      state : int M.cell;
      waiters : int M.cell;  (* colocated with [state] *)
    }

    type thread = { l : t }

    let create _cfg =
      let ln = M.line ~name:"blk.local" () in
      { state = M.cell ln free_global; waiters = M.cell ln 0 }

    let register l ~tid:_ ~cluster:_ = { l }

    let acquire th =
      let l = th.l in
      ignore (M.fetch_and_add l.waiters 1);
      let rec loop () =
        let s = await l.state in
        if M.cas l.state ~expect:s ~desire:busy then begin
          ignore (M.fetch_and_add l.waiters (-1));
          if s = free_local then Lock_intf.Local_release
          else Lock_intf.Global_release
        end
        else loop ()
      in
      loop ()

    let alone th = M.read th.l.waiters = 0

    let release th kind =
      M.write th.l.state
        (match kind with
        | Lock_intf.Local_release -> free_local
        | Lock_intf.Global_release -> free_global)
  end
end
