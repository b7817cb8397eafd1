(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64]
   record field would box a fresh state on every draw. [step] is inlined
   into each draw below, so [int], [float] and [chance] keep the
   whole computation in registers and allocate nothing; only
   [next_int64], which returns an [int64], boxes its result. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set t 0 (Int64.of_int seed);
  t

let[@inline] step t =
  let open Int64 in
  let s = add (get t 0) 0x9E3779B97F4A7C15L in
  set t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = step t

let int t n =
  if n <= 0 then invalid_arg "Prng.int: n <= 0";
  (* Take the top 62 bits to avoid the sign; modulo bias is negligible for
     the workload-sized ranges used here. *)
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  v mod n

(* The top 53 bits fit an [int], and an [int] below 2^53 converts to
   the same double as the [int64]: [float_of_int] is an instruction
   where [Int64.to_float] is a C call. *)
let[@inline] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (step t) 11))
  /. 9007199254740992.0 (* 2^53 *)

let float t x = x *. unit_float t
let chance t p = unit_float t < p
