type line = Coherence.line

(* [r_eff] is the cell's read, performed verbatim on every [read]: a
   read's op record, closure and effect box are all invariant for a
   given cell, and reads dominate simulated instruction streams
   (spinning, lock-word polling), so building them per call was the
   single largest allocation in the hot path. The payloads of the other
   primitives depend on call arguments and are built per call.

   Every primitive first probes [Engine.fast_op] (the schedule-neutral
   inline path, see doc/SIMULATOR.md "Engine fast path"): on a hit the
   engine has already charged the access and advanced the clock, and the
   payload runs here, inline — the effect perform, handler dispatch and
   heap round trip all disappear. On a miss nothing was touched and the
   effect path proceeds exactly as before.

   Effect-path store payloads go through [store], which flags the line
   only when the value physically changes: the completion's
   [Engine.notify] walks the parked waiters only after such a store (see
   waitq.ml). Inline stores need no flag — the fast path takes a write
   or RMW only when nobody is parked on the line. *)
type 'a cell = { v : 'a ref; cline : Coherence.line; r_eff : 'a Effect.t }

let mk_cell cline v =
  let v = ref v in
  {
    v;
    cline;
    r_eff =
      Engine.Op
        { o_line = cline; o_kind = Coherence.Read; o_run = (fun () -> !v) };
  }

let line ?name () = Coherence.make_line ?name ()
let line_site (l : line) = l.Coherence.name
let cell cline v = mk_cell cline v
let cell' ?name v = mk_cell (Coherence.make_line ?name ()) v

let store c x =
  if !(c.v) != x then begin
    c.v := x;
    c.cline.Coherence.wq.Waitq.changed <- true
  end

let read c =
  if Engine.fast_op c.cline Coherence.Read then !(c.v)
  else Effect.perform c.r_eff

let write c x =
  if Engine.fast_op c.cline Coherence.Write then c.v := x
  else
    Effect.perform
      (Engine.Op
         {
           o_line = c.cline;
           o_kind = Coherence.Write;
           o_run = (fun () -> store c x);
         })

let cas c ~expect ~desire =
  if Engine.fast_op c.cline Coherence.Rmw then
    if !(c.v) == expect then begin
      c.v := desire;
      true
    end
    else false
  else
    Effect.perform
      (Engine.Op
         {
           o_line = c.cline;
           o_kind = Coherence.Rmw;
           o_run =
             (fun () ->
               if !(c.v) == expect then begin
                 store c desire;
                 true
               end
               else false);
         })

let swap c x =
  if Engine.fast_op c.cline Coherence.Rmw then begin
    let old = !(c.v) in
    c.v := x;
    old
  end
  else
    Effect.perform
      (Engine.Op
         {
           o_line = c.cline;
           o_kind = Coherence.Rmw;
           o_run =
             (fun () ->
               let old = !(c.v) in
               store c x;
               old);
         })

let fetch_and_add c d =
  if Engine.fast_op c.cline Coherence.Rmw then begin
    let old = !(c.v) in
    c.v := old + d;
    old
  end
  else
    Effect.perform
      (Engine.Op
         {
           o_line = c.cline;
           o_kind = Coherence.Rmw;
           o_run =
             (fun () ->
               let old = !(c.v) in
               store c (old + d);
               old);
         })

(* An untimed wait's first predicate check is a charged read followed by
   either a return (pred holds) or a park: when the charged read itself
   fast-paths ([Engine.fast_check], which a forced explore step presents
   as the spin-check it replaces), evaluate the predicate here — at the
   check's exact simulated time — and either return without any effect
   at all, or park through a [w_precharged] descriptor so the handler
   neither re-charges nor schedules the already-consumed first check.
   Timed waits always take the effect path: their deadline is computed
   from [now] at perform time, which the precharge has already
   advanced. *)
let wait_until c p =
  if Engine.fast_check c.cline then begin
    let v = !(c.v) in
    if p v then v
    else
      let desc =
        Engine.
          {
            w_line = c.cline;
            w_pred =
              (fun () ->
                let v = !(c.v) in
                if p v then Some v else None);
            w_timeout = None;
            w_precharged = true;
          }
      in
      match Effect.perform (Engine.Wait desc) with
      | Some v -> v
      | None -> assert false (* untimed waits never time out *)
  end
  else
    let desc =
      Engine.
        {
          w_line = c.cline;
          w_pred =
            (fun () ->
              let v = !(c.v) in
              if p v then Some v else None);
          w_timeout = None;
          w_precharged = false;
        }
    in
    match Effect.perform (Engine.Wait desc) with
    | Some v -> v
    | None -> assert false (* untimed waits never time out *)

let wait_until_for c p ~timeout =
  let desc =
    Engine.
      {
        w_line = c.cline;
        w_pred =
          (fun () ->
            let v = !(c.v) in
            if p v then Some v else None);
        w_timeout = Some timeout;
        w_precharged = false;
      }
  in
  Effect.perform (Engine.Wait desc)

let pause d = if Engine.fast_pause d then () else Effect.perform (Engine.Pause d)
let cpu_relax () = pause 1

let now () =
  let t = Engine.fast_now () in
  if t >= 0 then t else Effect.perform Engine.Now

(* Host-side, between runs: no effect, no charge, no wake (sim_mem.mli). *)
let init c x = c.v := x
