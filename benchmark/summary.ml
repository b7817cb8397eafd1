(* Order statistics shared by the benchmark and its comparison tool. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so spreads read the same here as in any script
   that checks them. Needs at least two values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let m = Array.length a in
  if m < 2 then invalid_arg "Summary.quartiles: need at least two values";
  let q i =
    let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
    let delta = (i * (m + 1)) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> 0.
  | pos ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. pos
        /. float_of_int (List.length pos))

let sum_int = List.fold_left ( + ) 0
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
