open Numa_base
open Effect.Deep

type 'a op = {
  o_line : Coherence.line;
  o_kind : Coherence.kind;
  o_run : unit -> 'a;
}

(* A simulated cell ([Mem.cell]): one block, its value and its line. *)
type 'a cell = { mutable v : 'a; cline : Coherence.line }

(* A wait names its cell and predicate, not a closure over them: the
   handler reads [w_cell.v] at each check. *)
type 'a wait_desc = {
  w_cell : 'a cell;
  w_p : 'a -> bool;
  w_timeout : int;  (* >= 0, or [untimed] *)
  w_precharged : bool;
      (* the performer already charged the initial read, advanced the
         clock to the first check's time and found the predicate false
         (the fast path in [Mem.wait_until]): park directly instead
         of charging and scheduling a Spin_check. Untimed waits only —
         a timeout deadline is computed from [now] at perform time, and
         precharging has already moved [now]. *)
}

let untimed = -1

(* [Read c] and [Store (c, x)] are a plain read and write: one block,
   where an [Op] would also allocate its record and payload closure. *)
type _ Effect.t +=
  | Read : 'a cell -> 'a Effect.t
  | Op : 'a op -> 'a Effect.t
  | Store : 'a cell * 'a -> unit Effect.t
  | Wait : 'a wait_desc -> 'a option Effect.t
  | Pause : int -> unit Effect.t
  | Now : int Effect.t

exception Deadlock of { live : int; blocked : int; at : int }
exception Thread_failure = Runtime_intf.Thread_failure

(* Raised into every fiber a stopped run leaves unfinished (see
   [unwind]): only [discontinue] frees a suspended fiber's stack. *)
exception Unwind

(* --- scheduling policy (schedule exploration) -------------------------- *)

type ev_class =
  | Start
  | Op_read
  | Op_write
  | Op_rmw
  | Spin_check
  | Spin_wake
  | Timeout
  | Resume

let class_to_string = function
  | Start -> "start"
  | Op_read -> "read"
  | Op_write -> "write"
  | Op_rmw -> "rmw"
  | Spin_check -> "spin-check"
  | Spin_wake -> "spin-wake"
  | Timeout -> "timeout"
  | Resume -> "resume"

let[@inline] op_class = function
  | Coherence.Read -> Op_read
  | Coherence.Write -> Op_write
  | Coherence.Rmw -> Op_rmw

(* The event ledger's slot of a class: its declaration order. *)
let[@inline] slot = function
  | Start -> 0
  | Op_read -> 1
  | Op_write -> 2
  | Op_rmw -> 3
  | Spin_check -> 4
  | Spin_wake -> 5
  | Timeout -> 6
  | Resume -> 7

let all_classes =
  [ Start; Op_read; Op_write; Op_rmw; Spin_check; Spin_wake; Timeout; Resume ]

type result = {
  end_time : int;
  events : int;
  threads_finished : int;
  classes : Runtime_intf.event_class list;
  tiers : Runtime_intf.queue_tiers;
  profile : Numa_trace.Profile.t;
}

(* What a pending event runs; abstract in the interface, so a policy
   can see a candidate but not run it. *)
type thunk = unit -> unit

(* One record per pending explore event, made when the event is
   scheduled: the policy reads the pending set itself, not a copy. *)
type candidate = {
  c_time : int;
  c_tid : int;
  c_class : ev_class;
  c_line : string;
  c_run : thunk;
}

type policy = step:int -> n:int -> candidate array -> int

(* The pending set lives in a growable array kept sorted by
   (time, issue order) — the event heap's pop order — and its live
   prefix is what the policy is shown. New events are always the latest
   issued, so the insertion point is the upper bound by time alone. *)
type explore_state = {
  ex_policy : policy;
  ex_cap : int;  (* [max_events], or [max_int] *)
  mutable ex_pend : candidate array;  (* first [ex_n] slots live, sorted *)
  mutable ex_n : int;
  mutable ex_steps : int;
}

type mode =
  | Heap of (unit -> unit) Event_heap.t
  | Explore of explore_state

type t = {
  topo : Topology.t;
  mode : mode;
  mutable now : int;
  cstats : Coherence.stats;
  icx : Interconnect.t;
  mutable wlines : Coherence.line list;
      (* lines that gained a waiter this run — cleared on exit so parked
         closures (whole fiber stacks) do not outlive the run *)
  mutable live : int;
  mutable blocked : int;
  mutable events : int;
  epoch : int;
  prof : Coherence.profiler option;
  trace : Numa_trace.Sink.t;
      (* coherence-class events only (Coh_transfer / Coh_invalidate); lock
         events go through each lock's own sink. Kept separate so the
         per-remote-txn firehose cannot flood a lock-event rollup ring. *)
  fp_limit : int;
      (* the run's [horizon] (or max_int): an inlined access may not
         complete past it — the heap path would have discarded its
         completion event unrun *)
  inlined : int array;
  scheduled : int array;
      (* events per class ([slot]), retired inline by the fast path or
         popped from the pending set; together they sum to [events] *)
  mutable cur_tid : int;
  mutable cur_cluster : int;
      (* identity of the fiber currently executing — refreshed before
         every [continue]/[match_with], read by the fast path below *)
  mutable unwinding : bool;
      (* the run has stopped and [unwind] is discontinuing what is left:
         every pending event and every effect raises [Unwind] into its
         fiber instead of running *)
}

let epoch_counter = Atomic.make 0

(* Engine-internal events (thread starts, pause expiries) touch no cache
   line; this placeholder only feeds decision metadata. *)
let no_line = Coherence.make_line ~name:"(engine)" ()

let nop () = ()

(* The live prefix is a handful of events, so both shifts are plain
   loops; [Array.blit] runs only when the array grows. Slots past the
   prefix are never cleared: they hold only records of this run, and
   the array goes with the run. *)
let ex_insert ex c =
  let n = ex.ex_n in
  if n = Array.length ex.ex_pend then begin
    let a' = Array.make (if n = 0 then 64 else 2 * n) c in
    Array.blit ex.ex_pend 0 a' 0 n;
    ex.ex_pend <- a'
  end;
  let a = ex.ex_pend in
  (* Upper bound by time, scanning from the right: entries at [c]'s
     time were issued earlier, so [c] sorts after them. *)
  let j = ref n in
  while !j > 0 && a.(!j - 1).c_time > c.c_time do
    a.(!j) <- a.(!j - 1);
    decr j
  done;
  a.(!j) <- c;
  ex.ex_n <- n + 1

let ex_remove ex i =
  let a = ex.ex_pend in
  let n = ex.ex_n - 1 in
  for j = i to n - 1 do
    a.(j) <- a.(j + 1)
  done;
  ex.ex_n <- n

(* The metadata arguments are immediates (or values already in hand), so
   the default heap path allocates and branches exactly as before the
   policy hook existed — golden schedules are preserved structurally, not
   just by luck. *)
let schedule eng ~tid ~cls ~line time thunk =
  match eng.mode with
  | Heap h -> Event_heap.add h ~time thunk
  | Explore ex ->
      ex_insert ex
        {
          c_time = time;
          c_tid = tid;
          c_class = cls;
          c_line = line.Coherence.name;
          c_run = thunk;
        }

(* [now + d] for a delay [d >= 0], saturating just below the queue's
   [max_int] sentinel: a pause or timeout past the end of simulated time
   fires at [max_int - 1] instead of wrapping into the past. *)
let[@inline] later now d =
  let t = now + d in
  if t < 0 || t = max_int then max_int - 1 else t

(* The tail of an access whose transition crossed domains: queueing on
   the interconnect channel pool of its crossing level ([last_xlevel];
   always pool 0 on flat machines), then one coherence trace event. *)
let cross eng ~cluster ~thread line lat ~inval =
  let q =
    Interconnect.acquire eng.icx ~level:eng.cstats.Coherence.last_xlevel
      ~now:eng.now
  in
  (if q > 0 then
     match line.Coherence.prow with
     | Some r ->
         r.Numa_trace.Profile.s_stall_interconnect_ns <-
           r.Numa_trace.Profile.s_stall_interconnect_ns + q
     | None -> ());
  let ns = lat + q in
  (if Numa_trace.Sink.enabled eng.trace then
     let site = line.Coherence.name in
     Numa_trace.Sink.record eng.trace ~at:eng.now ~tid:thread ~cluster
       (if inval then Numa_trace.Event.Coh_invalidate { site; ns }
        else Numa_trace.Event.Coh_transfer { site; ns }));
  ns

(* Charge a memory access. Attribution (profiler rows, trace events)
   mutates stats only, so the charged latency — and hence the schedule —
   is independent of both. *)
let access eng ~cluster ~thread line kind =
  let tr =
    Coherence.classify line ~epoch:eng.epoch ~domain:cluster ~thread kind
  in
  let lat =
    Coherence.charge ?prof:eng.prof eng.cstats eng.topo line ~now:eng.now
      ~epoch:eng.epoch ~domain:cluster ~thread kind tr
  in
  match tr with
  | L1_hit | Local_hit | Upgrade | Memory -> lat
  | Fetch_modified | Fetch_shared | Steal ->
      cross eng ~cluster ~thread line lat ~inval:false
  | Invalidate | Miss_invalidate ->
      cross eng ~cluster ~thread line lat ~inval:true

(* A write or RMW to [line] completed: if its payload changed a value on
   the line ([Waitq.changed], set by [Sim_mem]'s store payloads and
   consumed here), wake every parked waiter whose predicate now holds.
   Waiters wake in registration order; each wake performs a charged
   re-read of the line, so a crowd of spinners re-fetches the line
   serially — modelling coherence arbitration. A failed CAS or a store
   of the value already there could wake nobody, so it skips the walk
   (why that is exact: waitq.ml). The queue lives on the line itself,
   so a waiterless or unchanged store costs a field load or two — no
   table lookup, no allocation; a line nobody ever parked on shares
   [Waitq.none], whose flag no store sets. [waiter_scans] counts actual
   walks: one per value-changing store over parked waiters. *)
let notify eng line =
  let q = line.Coherence.wq in
  if Waitq.take_change q then
    if (not (Waitq.is_empty q)) && q.Waitq.epoch = eng.epoch then begin
      eng.cstats.Coherence.waiter_scans <-
        eng.cstats.Coherence.waiter_scans + 1;
      Waitq.wake q
    end

let add_waiter eng line w =
  (* A line's first park ever gives it a queue of its own. *)
  let q = Coherence.own_waitq line in
  if q.Waitq.epoch <> eng.epoch then begin
    (* First park on this line this run: claim the queue (dropping any
       stale dead waiters from an earlier run) and remember to clear it
       on exit. *)
    Waitq.reset q ~epoch:eng.epoch;
    eng.wlines <- line :: eng.wlines
  end;
  Waitq.push q w

(* --- fast path (doc/SIMULATOR.md "Engine fast path") -------------------
   An access may retire inline — no effect, no pending event — exactly
   when running it inline is indistinguishable from the slow path. The
   slow path charges the access at perform time, schedules its
   completion, and (gates below) that completion would be the very next
   event run; inlining replays that step verbatim: advance the clock,
   bump the event counter, execute the payload. The gate depends on the
   mode.

   Heap mode (no policy):

   - Epoch-current same-domain hits only, taken by [Coherence.try_hit]
     as step 1 of the doc describes: a non-hit, or a hit that does not
     fit (below), falls through to the effect path having touched
     nothing.

   - Completion strictly before every pending heap event (the queue's
     cached minimum, one field load) and within the horizon. A
     tie loses: the pending event carries an older issue seq and would
     pop first, and running it could change the line, the value read,
     or even the hit classification. Strictness also keeps quantum/
     epoch boundaries (plain heap events, e.g. the collapse model's
     preemption ticks) and Timeout events ahead of any inlined work.

   Explore mode (a policy): only forced steps. When nothing else is
   pending ([ex_n = 0]) and the event budget is not spent, the fiber's
   completion would be the sole candidate of the next step, so any
   access qualifies, hit or miss: it is charged by the same [access]
   call the handler makes, and the policy is still shown the
   one-candidate step — same time, tid, class and line — so step
   numbering and recorded interleavings are unchanged. Every step with
   two or more candidates still goes through the pending set, so the
   explorer sees every decision point.

   In both modes writes and Rmws additionally require no parked waiters
   (the same guard [notify] applies) — a waiterless write wakes nobody,
   so skipping [notify] is exact, and the inline payload leaves
   [Waitq.changed] alone. *)

let fp_enabled = ref true
let set_fastpath b = fp_enabled := b
let fastpath_enabled () = !fp_enabled

(* The run whose loop is currently live, with its mode's state in hand
   (one load reaches both engine and queue on the heap-mode hot path) —
   installed at run start only when the fast path is on, so this one
   load is the whole guard. The sim substrate is single-domain by
   design (fibers, not domains), so a plain ref is safe; nested runs
   save/restore it. *)
type live =
  | Idle
  | Heap_run of t * (unit -> unit) Event_heap.t
  | Explore_run of t * explore_state

let cur_engine = ref Idle

(* The most latency an inline completion may take: finishing strictly
   before every pending heap event and within the horizon makes it
   exactly the heap path's next pop. *)
let[@inline] room eng (h : _ Event_heap.t) =
  let t = h.min - 1 in
  (if t < eng.fp_limit then t else eng.fp_limit) - eng.now

(* Replay the pop: advance the clock, count the event and its class. *)
let[@inline] retire eng cls lat =
  let i = slot cls in
  eng.now <- eng.now + lat;
  eng.events <- eng.events + 1;
  eng.inlined.(i) <- eng.inlined.(i) + 1;
  true

(* The popped event's class, bumped by each scheduled thunk as it runs:
   events discarded at the horizon or the event cap are never counted. *)
let[@inline] popped eng cls =
  let i = slot cls in
  eng.scheduled.(i) <- eng.scheduled.(i) + 1

(* An explore step is forced when the running fiber's next event will be
   the only candidate: nothing else pending, budget left. *)
let forced eng ex = ex.ex_n = 0 && eng.events < ex.ex_cap

(* Replay a forced explore step: show the policy its one candidate in
   slot 0 of the empty pending set (its answer is clamped to 0 on the
   slow path too), then retire the event at [time]. The running fiber
   began with a Start event, so the array has a slot. *)
let retire_forced eng ex ~cls ~line time =
  let a = ex.ex_pend in
  a.(0) <-
    {
      c_time = time;
      c_tid = eng.cur_tid;
      c_class = cls;
      c_line = line.Coherence.name;
      c_run = nop;
    };
  ignore (ex.ex_policy ~step:ex.ex_steps ~n:1 a : int);
  ex.ex_steps <- ex.ex_steps + 1;
  retire eng cls (time - eng.now)

let forced_access eng ex line kind ~cls =
  forced eng ex
  &&
  let lat =
    access eng ~cluster:eng.cur_cluster ~thread:eng.cur_tid line kind
  in
  retire_forced eng ex ~cls ~line (eng.now + lat)

let[@inline] waiterless eng line = function
  | Coherence.Read -> true
  | Coherence.Write | Coherence.Rmw ->
      let q = line.Coherence.wq in
      q.Waitq.head == Waitq.nil || q.Waitq.epoch <> eng.epoch

(* [true]: the access was charged and the clock advanced — the caller
   applies the operation's payload now, inline. [false]: perform the
   [Op] (or [Wait]) effect; nothing was touched. [cls] is the class the
   slow path would schedule the completion under: [op_class kind], or
   [Spin_check] for a [wait_until]'s first read. *)
let[@inline] fast_access line kind cls =
  match !cur_engine with
  | Idle -> false
  | Heap_run (eng, h) ->
      waiterless eng line kind
      &&
      let lat =
        Coherence.try_hit eng.cstats eng.topo line ~epoch:eng.epoch
          ~domain:eng.cur_cluster ~thread:eng.cur_tid kind ~within:(room eng h)
      in
      lat >= 0 && retire eng cls lat
  | Explore_run (eng, ex) ->
      waiterless eng line kind && forced_access eng ex line kind ~cls

(* A pause is pure scheduling: if its expiry would be the next event
   run, skip the round trip. *)
let[@inline] fast_pause d =
  let d = if d > 0 then d else 0 in
  match !cur_engine with
  | Idle -> false
  | Heap_run (eng, h) -> d <= room eng h && retire eng Resume d
  | Explore_run (eng, ex) ->
      forced eng ex
      && retire_forced eng ex ~cls:Resume ~line:no_line (eng.now + d)

(* --- the MEMORY primitives ----------------------------------------------
   They live in the fast path's compilation unit. The gates above inline
   into each primitive, and so does [Coherence.try_hit] (the build
   compiles without [-opaque]): an inline hit makes no call.

   A slow [read] performs [Read c] and a slow [write] [Store (c, x)].
   Slow-path store payloads go through [store], which flags the line
   only when the value physically changes and the line has a queue of
   its own: [notify] walks parked waiters only after such a store
   (waitq.ml). Inline stores need no flag — the fast path takes a write
   or RMW only when nobody is parked on the line. *)

(* A slow-path store payload: flag the line only when the value
   physically changes, so that [notify] walks its waiters. A line that
   shares [Waitq.none] has no waiter, so [Waitq.note_change] leaves it
   alone. *)
let store c x =
  if c.v != x then begin
    c.v <- x;
    Waitq.note_change c.cline.Coherence.wq
  end

module Mem = struct
  type line = Coherence.line
  type nonrec 'a cell = 'a cell

  let line ?name () = Coherence.make_line ?name ()
  let line_site (l : line) = l.Coherence.name
  let cell cline v = { v; cline }
  let cell' ?name v = { v; cline = Coherence.make_line ?name () }

  (* Host-side, between runs: no effect, no charge, no wake (sim_mem.mli). *)
  let init c x = c.v <- x

  let op c o_kind o_run = Op { o_line = c.cline; o_kind; o_run }

  let read c =
    if fast_access c.cline Coherence.Read Op_read then c.v
    else Effect.perform (Read c)

  let write c x =
    if fast_access c.cline Coherence.Write Op_write then c.v <- x
    else Effect.perform (Store (c, x))

  let cas c ~expect ~desire =
    if fast_access c.cline Coherence.Rmw Op_rmw then
      if c.v == expect then begin
        c.v <- desire;
        true
      end
      else false
    else
      Effect.perform
        (op c Coherence.Rmw (fun () ->
             if c.v == expect then begin
               store c desire;
               true
             end
             else false))

  let swap c x =
    if fast_access c.cline Coherence.Rmw Op_rmw then begin
      let old = c.v in
      c.v <- x;
      old
    end
    else
      Effect.perform
        (op c Coherence.Rmw (fun () ->
             let old = c.v in
             store c x;
             old))

  let fetch_and_add c d =
    if fast_access c.cline Coherence.Rmw Op_rmw then begin
      let old = c.v in
      c.v <- old + d;
      old
    end
    else
      Effect.perform
        (op c Coherence.Rmw (fun () ->
             let old = c.v in
             store c (old + d);
             old))

  (* When an untimed wait's first check (a charged read, the
     [Spin_check] it replaces) fast-paths, the predicate is evaluated
     here at the check's time: the wait returns with no effect, or parks
     through a [w_precharged] descriptor that the handler neither
     re-charges nor re-checks. Timed waits always take the effect path:
     their deadline is computed from [now] at perform time. *)
  let wait_until c p =
    let precharged = fast_access c.cline Coherence.Read Spin_check in
    let v = c.v in
    if precharged && p v then v
    else
      match
        Effect.perform
          (Wait
             {
               w_cell = c;
               w_p = p;
               w_timeout = untimed;
               w_precharged = precharged;
             })
      with
      | Some v -> v
      | None -> assert false (* untimed waits never time out *)

  let wait_until_for c p ~timeout =
    Effect.perform
      (Wait
         {
           w_cell = c;
           w_p = p;
           w_timeout = (if timeout > 0 then timeout else 0);
           w_precharged = false;
         })

  let pause d = if fast_pause d then () else Effect.perform (Pause d)
  let cpu_relax () = pause 1

  (* [Now] schedules nothing on the slow path either, so answering from
     the live run is unconditionally neutral. *)
  let now () =
    match !cur_engine with
    | Heap_run (eng, _) | Explore_run (eng, _) -> eng.now
    | Idle -> Effect.perform Now
end

(* A fiber's identity, built once per thread: what the handler's
   closures capture instead of the engine, tid and cluster apart.
   [cluster] is the thread's leaf domain: it drives coherence distances
   and is what locks and trace events see. *)
type fiber = { eng : t; tid : int; cluster : int }

(* Fibers only (re)gain control through a [continue] (or the Start
   thunk's [match_with]); stamping the engine there keeps
   [cur_tid]/[cur_cluster] equal to the running fiber, which the fast
   path's hit classification depends on. *)
let[@inline] set_ctx fb =
  fb.eng.cur_tid <- fb.tid;
  fb.eng.cur_cluster <- fb.cluster

(* One [Wait], from perform to continue: the one record its events
   share. [flags]: [finished], the fiber was continued; [unchecked], the
   scheduled Spin_check has not run — unless precharged it is the first
   check to run, as the fiber parks only after it. [waiter] is made at
   the first park and reused by every later one (a woken waiter is
   unlinked before its re-check runs); it is [active] exactly while the
   fiber is parked. [run] is the wait's one closure (see [step]). *)
type 'a wait = {
  fb : fiber;
  d : 'a wait_desc;
  k : ('a option, unit) continuation;
  mutable flags : int;
  mutable waiter : Waitq.waiter;
  mutable run : unit -> unit;
}

let finished = 2
let unchecked = 1

(* A parked waiter's check after a value-changing store: if the
   predicate holds, deactivate (the walk unlinks it) and schedule the
   re-check, which re-reads the line (charged) and re-checks the
   predicate at delivery time; if the value changed back meanwhile —
   e.g. another thread already took the lock — it re-parks instead of
   acting on the stale observation. *)
let wake w =
  let d = w.d in
  if d.w_p d.w_cell.v then begin
    let fb = w.fb in
    let eng = fb.eng and line = d.w_cell.cline in
    w.waiter.Waitq.active <- false;
    if d.w_timeout = untimed then eng.blocked <- eng.blocked - 1;
    let lat =
      access eng ~cluster:fb.cluster ~thread:fb.tid line Coherence.Read
    in
    schedule eng ~tid:fb.tid ~cls:Spin_wake ~line (eng.now + lat) w.run
  end

let park w =
  let eng = w.fb.eng in
  let wtr = w.waiter in
  let wtr =
    if wtr == Waitq.nil then begin
      let wtr = { Waitq.active = true; next = Waitq.nil; check = w.run } in
      w.waiter <- wtr;
      wtr
    end
    else begin
      wtr.Waitq.active <- true;
      wtr
    end
  in
  if w.d.w_timeout = untimed then eng.blocked <- eng.blocked + 1;
  add_waiter eng w.d.w_cell.cline wtr

(* The scheduled check (Spin_check, then Spin_wake after each wake):
   continue the fiber if the predicate holds, else park. A no-op once
   the wait finished (a timeout fired first). *)
let attempt w =
  let eng = w.fb.eng in
  if w.flags land unchecked <> 0 then begin
    w.flags <- w.flags land finished;
    popped eng Spin_check
  end
  else popped eng Spin_wake;
  if w.flags land finished = 0 then begin
    let v = w.d.w_cell.v in
    if w.d.w_p v then begin
      w.flags <- finished;
      set_ctx w.fb;
      continue w.k (Some v)
    end
    else park w
  end

(* The run stopped with the wait unfinished: discontinue the fiber, once
   — a timed wait has two events, and a parked one is on a line too. *)
let abandon w =
  if w.flags land finished = 0 then begin
    w.flags <- finished;
    w.waiter.Waitq.active <- false;
    discontinue w.k Unwind
  end

(* [run] in both of its roles: the parked waiter's [check], which a wake
   walk calls only while the waiter is active; and the scheduled check,
   which runs only while it is not — a parked wait has no check pending,
   and [wake] deactivates the waiter before scheduling one. *)
let step w =
  if w.fb.eng.unwinding then abandon w
  else if w.waiter.Waitq.active then wake w
  else attempt w

let expire w =
  if w.fb.eng.unwinding then abandon w
  else begin
    popped w.fb.eng Timeout;
    if w.flags land finished = 0 then begin
      w.flags <- w.flags lor finished;
      let wtr = w.waiter in
      if wtr.Waitq.active then wtr.Waitq.active <- false;
      set_ctx w.fb;
      continue w.k None
    end
  end

let wait fb d k =
  let eng = fb.eng in
  let w =
    {
      fb;
      d;
      k;
      flags = (if d.w_precharged then 0 else unchecked);
      waiter = Waitq.nil;
      run = nop;
    }
  in
  (* Tied after the fact: a [let rec] record would be built twice. *)
  w.run <- (fun () -> step w);
  if d.w_precharged then
    (* The performer's fast path already charged the read, advanced the
       clock to the first check's time and saw the predicate fail — the
       heap path would park here (precharged descs are untimed by
       contract). *)
    park w
  else begin
    let line = d.w_cell.cline in
    if d.w_timeout <> untimed then begin
      let deadline = later eng.now d.w_timeout in
      schedule eng ~tid:fb.tid ~cls:Timeout ~line
        (if deadline > eng.now then deadline else eng.now)
        (fun () -> expire w)
    end;
    let lat =
      access eng ~cluster:fb.cluster ~thread:fb.tid line Coherence.Read
    in
    schedule eng ~tid:fb.tid ~cls:Spin_check ~line (eng.now + lat) w.run
  end

let handler fb =
  let eng = fb.eng in
  {
    retc = (fun () -> eng.live <- eng.live - 1);
    exnc =
      (fun e ->
        if fb.eng.unwinding then fb.eng.live <- fb.eng.live - 1
        else
          match e with
          | Thread_failure _ -> raise e
          | _ ->
              let backtrace = Printexc.get_backtrace () in
              raise (Thread_failure { tid = fb.tid; exn = e; backtrace }));
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | (Read _ | Op _ | Store _ | Wait _ | Pause _ | Now) when eng.unwinding
          ->
            Some (fun (k : (b, unit) continuation) -> discontinue k Unwind)
        | Read c ->
            Some
              (fun (k : (b, unit) continuation) ->
                let eng = fb.eng in
                let lat =
                  access eng ~cluster:fb.cluster ~thread:fb.tid c.cline
                    Coherence.Read
                in
                schedule eng ~tid:fb.tid ~cls:Op_read ~line:c.cline
                  (eng.now + lat) (fun () ->
                    if fb.eng.unwinding then discontinue k Unwind
                    else begin
                      popped fb.eng Op_read;
                      set_ctx fb;
                      continue k c.v
                    end))
        | Op o ->
            Some
              (fun (k : (b, unit) continuation) ->
                let eng = fb.eng in
                let lat =
                  access eng ~cluster:fb.cluster ~thread:fb.tid o.o_line
                    o.o_kind
                in
                schedule eng ~tid:fb.tid ~cls:(op_class o.o_kind)
                  ~line:o.o_line (eng.now + lat) (fun () ->
                    if fb.eng.unwinding then discontinue k Unwind
                    else begin
                      popped fb.eng (op_class o.o_kind);
                      let v = o.o_run () in
                      (match o.o_kind with
                      | Coherence.Read -> ()
                      | Coherence.Write | Coherence.Rmw ->
                          notify fb.eng o.o_line);
                      set_ctx fb;
                      continue k v
                    end))
        | Store (c, x) ->
            Some
              (fun (k : (b, unit) continuation) ->
                let eng = fb.eng in
                let lat =
                  access eng ~cluster:fb.cluster ~thread:fb.tid c.cline
                    Coherence.Write
                in
                schedule eng ~tid:fb.tid ~cls:Op_write ~line:c.cline
                  (eng.now + lat) (fun () ->
                    if fb.eng.unwinding then discontinue k Unwind
                    else begin
                      popped fb.eng Op_write;
                      store c x;
                      notify fb.eng c.cline;
                      set_ctx fb;
                      continue k ()
                    end))
        | Wait d -> Some (fun (k : (b, unit) continuation) -> wait fb d k)
        | Pause d ->
            Some
              (fun (k : (b, unit) continuation) ->
                let eng = fb.eng in
                schedule eng ~tid:fb.tid ~cls:Resume ~line:no_line
                  (later eng.now (if d > 0 then d else 0))
                  (fun () ->
                    if fb.eng.unwinding then discontinue k Unwind
                    else begin
                      popped fb.eng Resume;
                      set_ctx fb;
                      continue k ()
                    end))
        | Now -> Some (fun (k : (b, unit) continuation) -> continue k eng.now)
        | _ -> None);
  }

let mk_result eng ~n_threads =
  {
    end_time = eng.now;
    events = eng.events;
    threads_finished = n_threads - eng.live;
    classes =
      List.map
        (fun cls ->
          let i = slot cls in
          {
            Runtime_intf.ec_class = class_to_string cls;
            ec_inlined = eng.inlined.(i);
            ec_scheduled = eng.scheduled.(i);
          })
        all_classes;
    tiers =
      (let qt_near, qt_coarse, qt_overflow =
         match eng.mode with
         | Heap h -> Event_heap.tier_adds h
         | Explore _ -> (0, 0, 0)
       in
       { Runtime_intf.qt_near; qt_coarse; qt_overflow });
    profile =
      {
        Numa_trace.Profile.sites =
          (match eng.prof with Some p -> Coherence.sites p | None -> []);
        totals = Coherence.export eng.cstats;
        icx = Interconnect.export eng.icx;
        icx_levels = Interconnect.export_levels eng.icx;
      };
  }

let run_explore eng ex ~n_threads =
  let hit_cap = ref false in
  let stop = ref false in
  while not !stop do
    if ex.ex_n = 0 then stop := true
    else if eng.events >= ex.ex_cap then begin
      hit_cap := true;
      stop := true
    end
    else begin
      let n = ex.ex_n in
      let idx = ex.ex_policy ~step:ex.ex_steps ~n ex.ex_pend in
      let idx = if idx < 0 || idx >= n then 0 else idx in
      ex.ex_steps <- ex.ex_steps + 1;
      let chosen = ex.ex_pend.(idx) in
      ex_remove ex idx;
      if chosen.c_time > eng.now then eng.now <- chosen.c_time;
      eng.events <- eng.events + 1;
      chosen.c_run ()
    end
  done;
  if (not !hit_cap) && eng.live > 0 then
    raise (Deadlock { live = eng.live; blocked = eng.blocked; at = eng.now });
  mk_result eng ~n_threads

let run_heap eng (heap : _ Event_heap.t) ~n_threads ~horizon =
  let hit_horizon = ref false in
  let stop = ref false in
  while not !stop do
    let t = heap.min in
    if t = max_int then stop := true
    else
      match horizon with
      | Some h when t > h ->
          hit_horizon := true;
          stop := true
      | _ ->
          let thunk = Event_heap.pop heap in
          if t > eng.now then eng.now <- t;
          eng.events <- eng.events + 1;
          thunk ()
  done;
  if (not !hit_horizon) && eng.live > 0 then
    raise (Deadlock { live = eng.live; blocked = eng.blocked; at = eng.now });
  mk_result eng ~n_threads

(* A run that stopped with fibers unfinished (at the horizon or the
   event cap, on [Deadlock] or [Thread_failure]) leaves each of them
   suspended in one place: a pending event — a timed wait has its
   timeout pending too — or a parked waiter on a line in [wlines]. A
   suspended fiber's stack is freed only when the fiber ends, so each is
   discontinued with [Unwind], once: in unwinding mode every pending
   event and every parked waiter's check raises into its fiber instead
   of running, a Start event of a fiber that never ran is dropped, and
   an effect a fiber performs while it unwinds is discontinued too. No
   payload, wake or host hook runs, so no cell changes. *)
let unwind eng =
  if eng.live > 0 then begin
    eng.unwinding <- true;
    (match eng.mode with
    | Heap h ->
        while not (Event_heap.is_empty h) do
          (Event_heap.pop h) ()
        done
    | Explore ex ->
        for i = 0 to ex.ex_n - 1 do
          ex.ex_pend.(i).c_run ()
        done);
    List.iter
      (fun l ->
        let q = l.Coherence.wq in
        if q.Waitq.epoch = eng.epoch then Waitq.wake q)
      eng.wlines
  end

(* Each domain keeps one emptied queue between heap-mode runs: its
   bucket window is 4096 words, which the runtime allocates straight
   into the major heap, so a queue per run would grow the peak heap of
   a sweep of short runs. A run takes the spare (a nested run finds the
   slot empty and builds its own) and [run] hands it back cleared, so a
   spare holds no payloads and no trace of the run before. *)
let spare : (unit -> unit) Event_heap.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_queue () =
  let slot = Domain.DLS.get spare in
  match !slot with
  | Some h ->
      slot := None;
      h
  | None -> Event_heap.create ~dummy:nop

let release_queue h =
  Event_heap.clear h;
  let slot = Domain.DLS.get spare in
  if Option.is_none !slot then slot := Some h

let run ~topology ~n_threads ?horizon ?policy ?max_events ?(profile = false)
    ?(trace = Numa_trace.Sink.noop) body =
  if n_threads < 1 then invalid_arg "Engine.run: n_threads < 1";
  (match (policy, horizon, max_events) with
  | Some _, Some _, _ -> invalid_arg "Engine.run: ~horizon with ~policy"
  | None, _, Some _ -> invalid_arg "Engine.run: ~max_events without ~policy"
  | _ -> ());
  let mode =
    match policy with
    | None -> Heap (take_queue ())
    | Some p ->
        Explore
          {
            ex_policy = p;
            ex_cap = (match max_events with Some m -> m | None -> max_int);
            ex_pend = [||];
            ex_n = 0;
            ex_steps = 0;
          }
  in
  let eng =
    {
      topo = topology;
      mode;
      now = 0;
      cstats = Coherence.fresh_stats ();
      icx = Interconnect.create topology;
      wlines = [];
      live = n_threads;
      blocked = 0;
      events = 0;
      epoch = Atomic.fetch_and_add epoch_counter 1;
      prof = (if profile then Some (Coherence.make_profiler ()) else None);
      trace;
      fp_limit = (match horizon with Some h -> h | None -> max_int);
      inlined = Array.make (List.length all_classes) 0;
      scheduled = Array.make (List.length all_classes) 0;
      cur_tid = -1;
      cur_cluster = -1;
      unwinding = false;
    }
  in
  for tid = 0 to n_threads - 1 do
    (* Oversubscription: logical threads beyond the machine's contexts
       wrap onto hardware contexts inside [cluster_of_thread]. *)
    let cluster = Topology.cluster_of_thread topology tid in
    let fb = { eng; tid; cluster } in
    let h = handler fb in
    (* 1 ns stagger breaks the t=0 symmetry deterministically. *)
    schedule eng ~tid ~cls:Start ~line:no_line tid (fun () ->
        if not eng.unwinding then begin
          popped eng Start;
          set_ctx fb;
          match_with (fun () -> body ~tid ~cluster) () h
        end)
  done;
  let saved = !cur_engine in
  (cur_engine :=
     if not !fp_enabled then Idle
     else
       match eng.mode with
       | Heap h -> Heap_run (eng, h)
       | Explore ex -> Explore_run (eng, ex));
  Fun.protect
    ~finally:(fun () ->
      (* Unwinding fibers take the effect path, which discontinues. *)
      cur_engine := Idle;
      unwind eng;
      cur_engine := saved;
      (match eng.mode with Heap h -> release_queue h | Explore _ -> ());
      (* Waiters parked dead (woken but never unlinked) still hold
         closures; don't let them outlive the run through long-lived
         lock lines. *)
      List.iter (fun l -> Waitq.clear l.Coherence.wq) eng.wlines;
      eng.wlines <- [])
    (fun () ->
      match eng.mode with
      | Explore ex -> run_explore eng ex ~n_threads
      | Heap heap -> run_heap eng heap ~n_threads ~horizon)
