(* Per-line waiter queue: a singly-linked FIFO with a tail pointer,
   hung off [Coherence.line].

   This replaces the engine's former [(line-id -> waiter list ref)
   Hashtbl], whose [r := !r @ [w]] append was O(waiters) per park (O(n²)
   for a crowd joining one line) and whose [Hashtbl.find_opt] ran on
   every write — including the overwhelmingly common case of a line
   nobody waits on. With the queue on the line itself, a write's waiter
   check is one field load, parking is a constant-time tail append, and
   a wake scan unlinks in place.

   Almost no line is ever parked on, so a line does not carry a queue
   of its own until it is: it starts out sharing [none], one empty queue
   that nothing writes, and [Engine.add_waiter] gives it a queue at its
   first park (the only allocation here), which it then keeps. Sharing
   [none] is exact: a line without a queue has no waiter, so
   [note_change] skipping it only spares [Engine.notify] a walk of
   nothing.

   Links use the [nil] sentinel (physical equality) instead of [option]
   so that linking and unlinking never allocates.

   Queues outlive an engine run only as dead storage: [epoch] tags the
   run that last touched the queue, and a queue whose epoch differs from
   the current run's is logically empty (see [Engine.add_waiter], which
   resets it before the first park of a run).

   Walks are change-gated: a store payload that physically changes a
   value on the line sets [changed], and the engine walks the queue only
   when it finds the flag set (and clears it). A failed CAS, or a store
   of the value already in the cell, cannot turn any parked predicate
   true — predicates depend only on the value they are given, and each
   active waiter's was false at its last evaluation — so skipping the
   walk is exact: the next walk unlinks the same inactive waiters and
   visits the active ones in the same registration order. *)

type waiter = {
  mutable active : bool;
      (** cleared when the waiter is woken or its timeout fires; an
          inactive waiter is unlinked by the next scan that reaches it. *)
  check : unit -> unit;
      (** re-evaluate the predicate after a value-changing store to the
          line; a waiter that wakes deactivates itself, and the walk
          unlinks it. *)
  mutable next : waiter;  (** [nil]-terminated. *)
}

let rec nil = { active = false; check = (fun () -> ()); next = nil }

type t = {
  mutable head : waiter;
  mutable tail : waiter;
  mutable epoch : int;  (** run that owns the contents; [min_int] = none *)
  mutable changed : bool;
      (** a store payload changed a value on the line since the last
          [Engine.notify] consumed the flag *)
}

let create () = { head = nil; tail = nil; epoch = min_int; changed = false }
let none = create ()

let is_empty q = q.head == nil

let clear q =
  q.head <- nil;
  q.tail <- nil;
  q.epoch <- min_int

let reset q ~epoch =
  q.head <- nil;
  q.tail <- nil;
  q.epoch <- epoch

let push q w =
  if q.head == nil then begin
    q.head <- w;
    q.tail <- w
  end
  else begin
    q.tail.next <- w;
    q.tail <- w
  end

let[@inline] note_change q = if q != none then q.changed <- true

let[@inline] take_change q =
  q.changed
  && begin
       q.changed <- false;
       true
     end

(* A value-changing store to the line landed: walk the queue in
   registration order, unlinking waiters that are no longer active and
   waiters whose [check] woke them (each check charges its own re-read, so
   a crowd re-fetches the line serially — see the notify comment in
   engine.ml). [check] never touches waiter queues (it only schedules
   future engine events), so in-place unlinking during the walk is
   safe. *)
let wake q =
  let prev = ref nil in
  let w = ref q.head in
  while !w != nil do
    let cur = !w in
    let next = cur.next in
    let keep =
      cur.active
      && begin
           cur.check ();
           cur.active
         end
    in
    if keep then prev := cur
    else begin
      if !prev == nil then q.head <- next else !prev.next <- next;
      if next == nil then q.tail <- !prev;
      cur.next <- nil
    end;
    w := next
  done
