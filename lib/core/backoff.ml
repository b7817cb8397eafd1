type policy = Exponential | Fibonacci

type t = {
  policy : policy;
  b_min : int;
  b_max : int;
  salt : int;
  mutable cur : int;
  mutable fib_prev : int;
  mutable attempt : int;
}

let make ?(policy = Exponential) ~min ~max ~salt () =
  if min < 1 || max < min then invalid_arg "Backoff.make: need 1 <= min <= max";
  { policy; b_min = min; b_max = max; salt; cur = min; fib_prev = 0; attempt = 0 }

(* Cheap deterministic integer mix for jitter. *)
let mix a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  let h = h lxor (h lsr 13) in
  let h = h * 0xC2B2AE35 in
  abs (h lxor (h lsr 16))

(* Int comparisons: [Stdlib.min]/[max] are polymorphic, a call into
   [compare_val] wherever the compiler cannot see the type. *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

let next t =
  let base = t.cur in
  t.attempt <- t.attempt + 1;
  (match t.policy with
  | Exponential ->
      t.cur <- imin t.b_max (t.cur * 2)
  | Fibonacci ->
      let s = t.cur + t.fib_prev in
      t.fib_prev <- t.cur;
      t.cur <- imin t.b_max (imax s 1));
  (* Jitter in [base/2, base]: keeps expected delay close to the policy
     value while breaking lockstep between identical contenders. *)
  let half = imax 1 (base / 2) in
  half + (mix t.salt t.attempt mod (half + 1))

let reset t =
  t.cur <- t.b_min;
  t.fib_prev <- 0
