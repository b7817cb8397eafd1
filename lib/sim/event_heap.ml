(* Three-tier calendar queue (Brown, CACM 1988) for the engine's
   pending events.

   Near tier: a window of [w] one-nanosecond buckets starting at
   [base], the last popped time. A bucket holds the events of exactly
   one time, as an intrusive FIFO over int slot arrays ([next] links
   slots; [pays] holds payloads), and an occupancy bitmap finds the
   next non-empty bucket. The FIFO is a circular list reached through
   its tail ([tails]; the head is the tail's [next]), so the window
   costs one word per bucket. An add appends to its bucket: no sift,
   one payload store through the write barrier. Direct adds land here
   only below [limit]: the last coarse-bucket edge at or before
   [base + w].

   Coarse tier: [cw] buckets of [g] ns each, covering
   [limit, limit + span). A coarse bucket is an intrusive FIFO over the
   same slot arrays, holding events of up to [g] different times in
   issue order; [stimes] keeps each slot's time and [cmins] each
   bucket's earliest. When [limit] passes a coarse bucket's end, the
   bucket cascades: each of its slots is relinked, in FIFO order, into
   the near bucket of its time. No payload moves.

   Overflow tier: events at or beyond [limit + span] wait in [Far], a
   4-ary (time, seq) min-heap. When [limit] advances, every overflow
   event the coarse span now covers moves into its coarse (or near)
   bucket in pop order.

   The tiers are ordered by time (near < coarse < overflow), and an
   event only ever moves down them. Why the pop order is the (time,
   seq) order of the key set, exactly as for a plain heap: the events
   of one time T sit in one tier at a time, and they enter a tier only
   before any direct add can land there. A direct add at T goes to the
   tier that covers T at the time of the add; [limit] only grows
   (between clears), so every earlier add at T went to the same tier
   or to a later one, and the later tiers are drained into T's bucket
   (cascade, migration) at the moment [limit] passes T's bucket edge,
   before the first add that the new [limit] routes lower. Each move
   appends in (time, seq) order: a coarse bucket is in issue order per
   time, and [Far] pops in (time, seq) order. So each bucket is in
   issue order per time, and the engine's schedules do not depend on
   the queue's internal shape.

   Aliasing: the near tier holds times in [base, limit), and
   [limit <= base + w], so no two of its times share a bucket; the
   coarse tier holds [limit, limit + cw * g), so no two of its coarse
   buckets' ranges share a bucket. Aligning [limit] to [g] is what lets
   a coarse bucket cascade whole: its end is never past [base + w].

   The price is the precondition [time >= base] on [add]: an earlier
   time would land behind the window's start and pop late, so it is
   rejected. The engine never schedules before [now], and [now] never
   trails the last popped time.

   Payload slots vacated by [pop] and [clear] are overwritten with
   [dummy] so popped or cleared closures (thread continuations,
   captured lock state) do not stay reachable from the arrays. Array
   accesses on the hot path are unchecked: slot indices come from the
   free list or [hwm] (both below [Array.length next]), bucket indices
   are masked to [w] or [cw], bitmap words to [words] or [cwords]; the
   qcheck suite in test_event_heap.ml backs this up against [Far]. *)

(* 4-ary min-heap over three parallel arrays: an entry is the triple
   (times.(i), seqs.(i), pays.(i)).
   - [times] and [seqs] are unboxed int arrays, so sifting moves machine
     words with no write barrier; only the single payload store per
     add/pop touches the barrier;
   - the heap is 4-ary: half the depth of a binary heap, and the four
     children of a node sit in adjacent slots;
   - [add] and [pop] allocate nothing (amortising growth), and sifting
     is hole-based: the moving element is written once at its final
     slot. *)
module Far = struct
  type 'a t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable pays : 'a array;
    mutable n : int;
    mutable next_seq : int;
    dummy : 'a;
  }

  let create ~dummy =
    { times = [||]; seqs = [||]; pays = [||]; n = 0; next_seq = 0; dummy }

  let size t = t.n
  let is_empty t = t.n = 0

  let grow t =
    let cap = Array.length t.times in
    let cap' = if cap = 0 then 64 else 2 * cap in
    let times' = Array.make cap' 0 in
    let seqs' = Array.make cap' 0 in
    let pays' = Array.make cap' t.dummy in
    Array.blit t.times 0 times' 0 t.n;
    Array.blit t.seqs 0 seqs' 0 t.n;
    Array.blit t.pays 0 pays' 0 t.n;
    t.times <- times';
    t.seqs <- seqs';
    t.pays <- pays'

  (* Node i's children are 4i+1 .. 4i+4; its parent is (i-1)/4. *)

  let add t ~time payload =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if t.n = Array.length t.times then grow t;
    let times = t.times and seqs = t.seqs and pays = t.pays in
    (* Sift up with a hole: move greater parents down, place once. *)
    let i = ref t.n in
    t.n <- t.n + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 4 in
      let pt = Array.unsafe_get times parent in
      if time < pt || (time = pt && seq < Array.unsafe_get seqs parent)
      then begin
        Array.unsafe_set times !i pt;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
        Array.unsafe_set pays !i (Array.unsafe_get pays parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set pays !i payload

  let min_time t = if t.n = 0 then max_int else Array.unsafe_get t.times 0

  let pop t =
    if t.n = 0 then invalid_arg "Event_heap.pop: empty heap";
    let times = t.times and seqs = t.seqs and pays = t.pays in
    let top = Array.unsafe_get pays 0 in
    let n = t.n - 1 in
    t.n <- n;
    if n = 0 then Array.unsafe_set pays 0 t.dummy
    else begin
      (* Move the last entry into the root's hole, sifting the hole down
         past the smallest child while that child is smaller. *)
      let mt = Array.unsafe_get times n and ms = Array.unsafe_get seqs n in
      let mp = Array.unsafe_get pays n in
      Array.unsafe_set pays n t.dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let base = (4 * !i) + 1 in
        if base >= n then continue := false
        else begin
          (* Smallest of the up-to-four children. *)
          let last = base + 3 in
          let last = if last < n then last else n - 1 in
          let c = ref base in
          let ct = ref (Array.unsafe_get times base) in
          let cs = ref (Array.unsafe_get seqs base) in
          for j = base + 1 to last do
            let jt = Array.unsafe_get times j in
            if jt < !ct || (jt = !ct && Array.unsafe_get seqs j < !cs)
            then begin
              c := j;
              ct := jt;
              cs := Array.unsafe_get seqs j
            end
          done;
          if !ct < mt || (!ct = mt && !cs < ms) then begin
            Array.unsafe_set times !i !ct;
            Array.unsafe_set seqs !i !cs;
            Array.unsafe_set pays !i (Array.unsafe_get pays !c);
            i := !c
          end
          else continue := false
        end
      done;
      Array.unsafe_set times !i mt;
      Array.unsafe_set seqs !i ms;
      Array.unsafe_set pays !i mp
    end;
    top

  let clear t =
    Array.fill t.pays 0 t.n t.dummy;
    t.n <- 0
end

(* The near window: 4096 buckets cover about 98.5% of the engine's
   scheduled events on the contended lock benchmarks (doc/SIMULATOR.md
   "Engine performance"). A power of two, so a bucket index is a mask. *)
let w = 4096
let mask = w - 1

(* The occupancy bitmap uses 32 bits per word, so [ctz32] finds a
   word's lowest set bit with one de Bruijn multiply. A summary bitmap
   marks the non-empty words, so finding the next event [w] ns ahead
   reads at most [sum_words + 1] summary words, not all [words]. *)
let words = w / 32
let sum_words = words / 32

(* The coarse tier: [cw] buckets of [g = 2^gbits] ns, spanning
   [span = 2^18] ns (262 us): backoff pauses of up to 10 us and 30 us
   deschedule rounds of the collapse herd fall inside it. Its fixed
   arrays take [2 * cw + cwords] = 260 words. [g] divides [w], so the
   near window always holds at least [w - g] ns. *)
let gbits = 11
let g = 1 lsl gbits
let cw = 128
let cmask = cw - 1
let span = cw * g
let cwords = cw / 32

(* At most 19 fields: a larger record would sit in a major-heap size
   class of its own, one more 32 KB pool in every process's peak (as
   for [debruijn] below). Hence no total count (it is the three tiers'
   sum) and one array for the tier counters. *)
type 'a t = {
  mutable min : int;
  mutable base : int;
  mutable limit : int;
  mutable near_n : int;
  mutable coarse_n : int;
  tails : int array;
  bits : int array;
  sums : int array;
  ctails : int array;
  cmins : int array;
  cbits : int array;
  mutable next : int array;
  mutable pays : 'a array;
  mutable stimes : int array;
  mutable free : int;
  mutable hwm : int;
  far : 'a Far.t;
  dummy : 'a;
  adds : int array;
}

let create ~dummy =
  {
    min = max_int;
    base = 0;
    limit = w;
    near_n = 0;
    coarse_n = 0;
    tails = Array.make w 0;
    bits = Array.make words 0;
    sums = Array.make sum_words 0;
    ctails = Array.make cw 0;
    cmins = Array.make cw 0;
    cbits = Array.make cwords 0;
    next = [||];
    pays = [||];
    stimes = [||];
    free = -1;
    hwm = 0;
    far = Far.create ~dummy;
    dummy;
    adds = Array.make 3 0;
  }

let size t = t.near_n + t.coarse_n + Far.size t.far
let is_empty t = t.min = max_int
let min_time t = t.min
let tier_adds t = (t.adds.(0), t.adds.(1), t.adds.(2))

(* The de Bruijn table as a string literal, which is static data: an
   array literal would be allocated at start-up, in a major-heap size
   class of its own (one more 32 KB pool in every process's peak). *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

(* Index of the lowest set bit of a non-zero 32-bit word. *)
let[@inline] ctz32 x =
  Char.code
    (String.unsafe_get debruijn
       ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

let grow t =
  let cap = Array.length t.next in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let next' = Array.make cap' 0 in
  let pays' = Array.make cap' t.dummy in
  let stimes' = Array.make cap' 0 in
  Array.blit t.next 0 next' 0 cap;
  Array.blit t.pays 0 pays' 0 cap;
  Array.blit t.stimes 0 stimes' 0 cap;
  t.next <- next';
  t.pays <- pays';
  t.stimes <- stimes'

(* A free slot holding [payload]. *)
let[@inline] slot t payload =
  let s =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- Array.unsafe_get t.next s;
      s
    end
    else begin
      if t.hwm = Array.length t.next then grow t;
      let s = t.hwm in
      t.hwm <- s + 1;
      s
    end
  in
  Array.unsafe_set t.pays s payload;
  s

(* Append slot [s] to the FIFO of [time]'s near bucket; [time] is in
   the window. [tails.(b)] is meaningful only while b's bitmap bit is
   set. *)
let[@inline] link_near t time s =
  let b = time land mask in
  let word = b lsr 5 and bit = 1 lsl (b land 31) in
  let occ = Array.unsafe_get t.bits word in
  if occ land bit = 0 then begin
    if occ = 0 then begin
      let k = word lsr 5 in
      Array.unsafe_set t.sums k
        (Array.unsafe_get t.sums k lor (1 lsl (word land 31)))
    end;
    Array.unsafe_set t.bits word (occ lor bit);
    Array.unsafe_set t.next s s
  end
  else begin
    let tail = Array.unsafe_get t.tails b in
    Array.unsafe_set t.next s (Array.unsafe_get t.next tail);
    Array.unsafe_set t.next tail s
  end;
  Array.unsafe_set t.tails b s;
  t.near_n <- t.near_n + 1

(* Append slot [s] to the FIFO of [time]'s coarse bucket; [time] is in
   the coarse span. *)
let link_coarse t time s =
  Array.unsafe_set t.stimes s time;
  let c = (time lsr gbits) land cmask in
  let word = c lsr 5 and bit = 1 lsl (c land 31) in
  let occ = Array.unsafe_get t.cbits word in
  if occ land bit = 0 then begin
    Array.unsafe_set t.cbits word (occ lor bit);
    Array.unsafe_set t.cmins c time;
    Array.unsafe_set t.next s s
  end
  else begin
    if time < Array.unsafe_get t.cmins c then Array.unsafe_set t.cmins c time;
    let tail = Array.unsafe_get t.ctails c in
    Array.unsafe_set t.next s (Array.unsafe_get t.next tail);
    Array.unsafe_set t.next tail s
  end;
  Array.unsafe_set t.ctails c s;
  t.coarse_n <- t.coarse_n + 1

(* Move coarse bucket [c] (non-empty) into the near tier, slot by slot
   in FIFO order. *)
let cascade t c =
  let word = c lsr 5 in
  Array.unsafe_set t.cbits word
    (Array.unsafe_get t.cbits word land lnot (1 lsl (c land 31)));
  let tail = Array.unsafe_get t.ctails c in
  let s = ref (Array.unsafe_get t.next tail) in
  let last = ref false in
  while not !last do
    let cur = !s in
    last := cur = tail;
    s := Array.unsafe_get t.next cur;
    t.coarse_n <- t.coarse_n - 1;
    link_near t (Array.unsafe_get t.stimes cur) cur
  done

(* [limit] advances to [lim]: cascade every coarse bucket that now lies
   below it, then move every overflow event the coarse span now covers
   into its bucket, in (time, seq) order. *)
let advance t lim =
  let old = t.limit in
  t.limit <- lim;
  if t.coarse_n > 0 then begin
    (* A saturated [lim] is no edge: every coarse time is below it. *)
    let nb = if lim = max_int then cw else (lim - old) lsr gbits in
    let nb = if nb < cw then nb else cw in
    let c0 = old lsr gbits in
    let i = ref 0 in
    while !i < nb && t.coarse_n > 0 do
      let c = (c0 + !i) land cmask in
      if Array.unsafe_get t.cbits (c lsr 5) land (1 lsl (c land 31)) <> 0 then
        cascade t c;
      incr i
    done
  end;
  let far = t.far in
  while far.Far.n > 0 && Far.min_time far - lim < span do
    let time = Far.min_time far in
    let s = slot t (Far.pop far) in
    if time < lim then link_near t time s else link_coarse t time s
  done

let add t ~time payload =
  if time < t.base || time = max_int then
    invalid_arg "Event_heap.add: time before the last pop, or max_int";
  let tier =
    if time < t.limit then begin
      link_near t time (slot t payload);
      0
    end
    else if time - t.limit < span then begin
      link_coarse t time (slot t payload);
      1
    end
    else begin
      Far.add t.far ~time payload;
      2
    end
  in
  Array.unsafe_set t.adds tier (Array.unsafe_get t.adds tier + 1);
  if time < t.min then t.min <- time

(* The first non-empty bitmap word at or after word [from], circularly;
   one must exist. *)
let next_word t from =
  let sums = t.sums in
  let k = from lsr 5 in
  let y = Array.unsafe_get sums k land (-1 lsl (from land 31)) in
  if y <> 0 then (k lsl 5) lor ctz32 y
  else begin
    (* Wrapping back to summary word k is right: its bits at or above
       [from] are clear, so a set bit there is a word below [from]'s. *)
    let k = ref ((k + 1) land (sum_words - 1)) in
    while Array.unsafe_get sums !k = 0 do
      k := (!k + 1) land (sum_words - 1)
    done;
    (!k lsl 5) lor ctz32 (Array.unsafe_get sums !k)
  end

(* The earliest non-empty bucket's time, searching circularly from
   bucket [b] (that of [base]). The near tier must be non-empty. *)
let[@inline] next_near t b =
  let bits = t.bits in
  let i = b lsr 5 in
  let x = Array.unsafe_get bits i land (-1 lsl (b land 31)) in
  let idx =
    if x <> 0 then (i lsl 5) lor ctz32 x
    else
      (* As in [next_word], wrapping back to word i finds only bits
         below b: later times. *)
      let i = next_word t ((i + 1) land (words - 1)) in
      (i lsl 5) lor ctz32 (Array.unsafe_get bits i)
  in
  t.base + ((idx - t.base) land mask)

(* The earliest coarse event's time: the minimum of the first
   non-empty coarse bucket, searching circularly from [limit]'s. The
   coarse tier must be non-empty. *)
let next_coarse t =
  let c = (t.limit lsr gbits) land cmask in
  let i = c lsr 5 in
  let x = Array.unsafe_get t.cbits i land (-1 lsl (c land 31)) in
  let idx =
    if x <> 0 then (i lsl 5) lor ctz32 x
    else begin
      (* Wrapping back to word i finds only bits below c: later times. *)
      let i = ref ((i + 1) land (cwords - 1)) in
      while Array.unsafe_get t.cbits !i = 0 do
        i := (!i + 1) land (cwords - 1)
      done;
      (!i lsl 5) lor ctz32 (Array.unsafe_get t.cbits !i)
    end
  in
  Array.unsafe_get t.cmins idx

let pop t =
  let time = t.min in
  if time = max_int then invalid_arg "Event_heap.pop: empty heap";
  if time > t.base then begin
    (* The window moves to [time]; with the near tier empty, [time] is
       in a later tier, and the advance brings it in. The last coarse
       edge at or before [time + w], saturating near [max_int]. *)
    t.base <- time;
    let lim =
      if time > max_int - w then max_int else ((time + w) lsr gbits) lsl gbits
    in
    if lim > t.limit then advance t lim
  end;
  let b = time land mask in
  let tail = Array.unsafe_get t.tails b in
  let s = Array.unsafe_get t.next tail in
  let payload = Array.unsafe_get t.pays s in
  Array.unsafe_set t.pays s t.dummy;
  let nx = Array.unsafe_get t.next s in
  Array.unsafe_set t.next s t.free;
  t.free <- s;
  t.near_n <- t.near_n - 1;
  if s <> tail then Array.unsafe_set t.next tail nx
  else begin
    let word = b lsr 5 in
    let occ = Array.unsafe_get t.bits word land lnot (1 lsl (b land 31)) in
    Array.unsafe_set t.bits word occ;
    if occ = 0 then begin
      let k = word lsr 5 in
      Array.unsafe_set t.sums k
        (Array.unsafe_get t.sums k land lnot (1 lsl (word land 31)))
    end;
    t.min <-
      (if t.near_n > 0 then next_near t b
       else if t.coarse_n > 0 then next_coarse t
       else Far.min_time t.far)
  end;
  payload

let clear t =
  Array.fill t.pays 0 t.hwm t.dummy;
  Array.fill t.bits 0 words 0;
  Array.fill t.sums 0 sum_words 0;
  Array.fill t.cbits 0 cwords 0;
  t.free <- -1;
  t.hwm <- 0;
  t.near_n <- 0;
  t.coarse_n <- 0;
  t.min <- max_int;
  t.base <- 0;
  t.limit <- w;
  Array.fill t.adds 0 3 0;
  Far.clear t.far
