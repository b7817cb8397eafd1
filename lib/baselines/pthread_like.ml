(** A blocking (park/unpark) mutex modelling the pthread adaptive mutex
    the paper's memcached and malloc baselines use.

    Fast path: one CAS. Slow path: the waiter marks the lock contended,
    pays a park cost (syscall entry), sleeps until the word is released,
    and pays a resume cost (wakeup latency) before re-competing — a
    futex-style 0 / 1 / 2 (free / locked / contended) protocol. The
    park/resume constants are what make blocking mutexes lose to spin
    locks under contention (Table 1, write-heavy columns) while being
    perfectly adequate uncontended. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : Cohort.Lock_intf.LOCK =
struct
  module I = Cohort.Instr.Make (M)
  module P = Cohort.Park_lock.Make (M)

  let free = 0
  let locked = 1
  let contended = 2
  let adaptive_spin = 4_000 (* ns: spin before parking (adaptive mutex) *)
  let spin_pause = 400 (* ns between CAS retries while spinning *)

  type t = { state : int M.cell; cfg : Cohort.Lock_intf.config }

  type thread = { l : t; ev : Cohort.Instr.t }

  let name = "pthread"
  let create cfg = { state = M.cell' ~name:"pthread.state" free; cfg }

  let register l ~tid ~cluster =
    { l; ev = Cohort.Instr.make l.cfg ~tid ~cluster }

  let acquire th =
    let state = th.l.state in
    if M.cas state ~expect:free ~desire:locked then ()
    else begin
      (* Adaptive phase: spin briefly hoping the holder releases soon,
         like the Solaris adaptive mutex. *)
      let deadline = M.now () + adaptive_spin in
      let rec spin () =
        let remaining = deadline - M.now () in
        if remaining <= 0 then false
        else
          match
            M.wait_until_for state (fun v -> v = free) ~timeout:remaining
          with
          | Some _ ->
              if M.cas state ~expect:free ~desire:locked then true
              else begin
                M.pause spin_pause;
                spin ()
              end
          | None -> false
      in
      if not (spin ()) then begin
        let rec slow () =
          let v = M.read state in
          if v = free then begin
            if not (M.cas state ~expect:free ~desire:contended) then slow ()
          end
          else begin
            if v = locked then
              ignore (M.cas state ~expect:locked ~desire:contended);
            ignore (P.park state (fun v -> v = free));
            slow ()
          end
        in
        slow ()
      end
    end;
    I.emit th.ev Numa_trace.Event.Acquire_global

  let release th =
    I.emit th.ev Numa_trace.Event.Handoff_global;
    ignore (M.swap th.l.state free)
end
