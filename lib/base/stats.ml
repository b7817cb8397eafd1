(* Welford's one-pass mean and sum of squared deviations; the standard
   deviation is the population one, 0 for fewer than 2 samples. *)
let stddev_pct a =
  let mean = ref 0. and m2 = ref 0. in
  Array.iteri
    (fun i x ->
      let delta = x -. !mean in
      mean := !mean +. (delta /. float_of_int (i + 1));
      m2 := !m2 +. (delta *. (x -. !mean)))
    a;
  let n = Array.length a in
  let stddev = if n < 2 then 0. else sqrt (!m2 /. float_of_int n) in
  if !mean = 0. then 0. else 100. *. stddev /. !mean

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: empty array";
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1. -. frac)) +. (a.(Stdlib.min hi (n - 1)) *. frac)

module Histogram = struct
  (* Bucket i holds values in [2^(i-1), 2^i); bucket 0 holds {0}. *)
  let buckets = 63

  type h = {
    counts : int array;
    mutable n : int;
    mutable maximum : int;
  }

  let create () = { counts = Array.make buckets 0; n = 0; maximum = 0 }

  let bucket_of v =
    if v <= 0 then 0
    else
      let rec go i = if v lsr i = 0 then i else go (i + 1) in
      go 1

  let add h v =
    (* Int comparisons, not the polymorphic [Stdlib.min]/[max]. *)
    let v = if v > 0 then v else 0 in
    let b = bucket_of v in
    let b = if b < buckets - 1 then b else buckets - 1 in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    if v > h.maximum then h.maximum <- v

  let max_seen h = h.maximum

  let quantile h q =
    if h.n = 0 then 0
    else begin
      let q = Stdlib.min 1. (Stdlib.max 0. q) in
      let rank = int_of_float (Float.ceil (q *. float_of_int h.n)) in
      let rank = Stdlib.max 1 rank in
      let acc = ref 0 in
      let result = ref h.maximum in
      (try
         for b = 0 to buckets - 1 do
           acc := !acc + h.counts.(b);
           if !acc >= rank then begin
             (* top of bucket b, capped by the observed maximum *)
             result := Stdlib.min h.maximum (if b = 0 then 0 else 1 lsl b);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let merge a b =
    let h = create () in
    Array.iteri (fun i c -> h.counts.(i) <- c + b.counts.(i)) a.counts;
    h.n <- a.n + b.n;
    h.maximum <- Stdlib.max a.maximum b.maximum;
    h
end
