(* A fixed reference task, timed next to every host measurement so that
   host times can be given at one reference speed.

   On a shared host, co-tenants slow a vCPU through shared caches and
   execution units, and two vCPUs of one VM can run at different speeds:
   on a 2-vCPU Firecracker VM on a shared Xeon, the same rep took 20-50%
   longer from one minute to the next, or on the other vCPU. The
   reference task slows much the same way at the same moment on the same
   vCPU, so a host time divided by the task's time next to it stays
   nearly put. [scale] turns that ratio back into seconds: seconds on a
   host where the task takes [reference_s]. A 0.2 s task is long enough
   that its own jitter stays small against the drift it corrects.

   The task is the benchmark's own code and uses nothing from the
   repository's libraries, so no change to the program can speed it up.
   Its mix resembles the simulator's: a binary heap of timed events, a
   4 MB table read and written at random, and short-lived allocation. The
   heap and table live outside the OCaml heap, so the task leaves
   [host_peak_heap_mb] alone. The work is fixed; [run] returns a checksum
   so none of it can be optimised away. *)

module A = Bigarray.Array1

let reference_s = 0.2
let heap_size = 1 lsl 14
let table_words = 1 lsl 19
let full_steps = 700_000

type ev = { at : int; slot : int }

let run steps =
  let ints n =
    let a = A.create Bigarray.int Bigarray.c_layout n in
    A.fill a 0;
    a
  in
  let table = ints table_words in
  (* Events packed as at * heap_size + slot, so the heap orders by [at]. *)
  let heap = ints heap_size in
  let n = ref 0 in
  let swap i j =
    let t = A.get heap i in
    A.set heap i (A.get heap j);
    A.set heap j t
  in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && A.get heap i < A.get heap p then (swap i p; up p)
  in
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < !n && A.get heap l < A.get heap i then l else i in
    let m = if r < !n && A.get heap r < A.get heap m then r else m in
    if m <> i then (swap i m; down m)
  in
  let push e =
    A.set heap !n ((e.at * heap_size) + (e.slot land (heap_size - 1)));
    incr n;
    up (!n - 1)
  in
  let pop () =
    let top = A.get heap 0 in
    decr n;
    A.set heap 0 (A.get heap !n);
    down 0;
    (* A fresh record per event, dead by the next step. *)
    Sys.opaque_identity { at = top / heap_size; slot = top land (heap_size - 1) }
  in
  (* A xorshift stream: the same on every host and run. *)
  let x = ref 0x2545F491 in
  let next () =
    x := !x lxor (!x lsl 13) land 0xFFFF_FFFF;
    x := !x lxor (!x lsr 17);
    x := !x lxor (!x lsl 5) land 0xFFFF_FFFF;
    !x
  in
  for i = 0 to (heap_size / 2) - 1 do
    push { at = next () land 0xFFFF; slot = i }
  done;
  let sum = ref 0 in
  for _ = 1 to steps do
    let e = pop () in
    let k = ((e.slot * 2654435761) + e.at) land (table_words - 1) in
    let v = A.get table k + 1 in
    A.set table k v;
    sum := !sum + v + A.get table (next () land (table_words - 1));
    push { at = e.at + 1 + (next () land 1023); slot = k }
  done;
  !sum

(* Seconds the task takes now, by [clock]. [share] < 1 runs that share
   of its steps, for measurements too short to afford the whole task. *)
let seconds ?(clock = Unix.gettimeofday) ?(share = 1.) () =
  let t0 = clock () in
  ignore (Sys.opaque_identity (run (int_of_float (share *. float_of_int full_steps))));
  clock () -. t0

(* [x] host seconds, measured while [share] of the task took [calib]
   seconds, as seconds at the reference speed. *)
let scale ?(share = 1.) ~calib x = x *. reference_s *. share /. calib
