(* Natively a "line" is just its site label: OCaml gives no portable
   control over object layout, so placement hints cannot be honoured.
   Keeping the label makes labelled allocation observable (conformance
   tests) at zero per-access cost — cells are still bare [Atomic.t]s. *)
type line = string
type 'a cell = 'a Atomic.t

let line ?(name = "") () = name
let line_site (l : line) = l
let cell (_ : line) v = Atomic.make v

let cell' ?name:_ v = Atomic.make v
let init = Atomic.set
let read = Atomic.get
let write = Atomic.set
let cas c ~expect ~desire = Atomic.compare_and_set c expect desire
let swap = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add

(* This unix build lacks clock_gettime; gettimeofday's microsecond
   resolution is adequate for backoff pauses and patience deadlines. *)
let start_time = Unix.gettimeofday ()
let now () = int_of_float ((Unix.gettimeofday () -. start_time) *. 1e9)

let cpu_relax = Domain.cpu_relax

(* Escalating wait: brief cpu_relax spinning, then exponentially longer
   sleeps capped at 1 ms — mandatory for progress when domains outnumber
   cores. *)
let backoff_wait spins =
  if spins < 64 then Domain.cpu_relax ()
  else begin
    let exp = min (spins - 64) 10 in
    Unix.sleepf (1e-6 *. float_of_int (1 lsl exp))
  end

let wait_until c p =
  let rec loop spins =
    let v = Atomic.get c in
    if p v then v
    else begin
      backoff_wait spins;
      loop (spins + 1)
    end
  in
  loop 0

let wait_until_for c p ~timeout =
  let deadline = now () + timeout in
  let rec loop spins =
    let v = Atomic.get c in
    if p v then Some v
    else if now () >= deadline then None
    else begin
      backoff_wait spins;
      loop (spins + 1)
    end
  in
  loop 0

let pause ns =
  if ns <= 0 then ()
  else if ns >= 5_000 then Unix.sleepf (float_of_int ns *. 1e-9)
  else begin
    (* Short pauses: spin on the clock. *)
    let deadline = now () + ns in
    while now () < deadline do
      Domain.cpu_relax ()
    done
  end
