type 'v t = Leaf | Node of 'v t * int * 'v * 'v t

let empty = Leaf

(* Classic recursive splay: after [splay x t], the node holding [x] — or
   the last node on the search path for [x] — is the root. *)
let rec splay x t =
  match t with
  | Leaf -> Leaf
  | Node (l, k, v, r) ->
      if x = k then t
      else if x < k then begin
        match l with
        | Leaf -> t
        | Node (ll, lk, lv, lr) ->
            if x = lk then Node (ll, lk, lv, Node (lr, k, v, r))
            else if x < lk then begin
              (* zig-zig *)
              match splay x ll with
              | Leaf -> Node (ll, lk, lv, Node (lr, k, v, r))
              | Node (a, mk, mv, b) ->
                  Node (a, mk, mv, Node (b, lk, lv, Node (lr, k, v, r)))
            end
            else begin
              (* zig-zag *)
              match splay x lr with
              | Leaf -> Node (ll, lk, lv, Node (lr, k, v, r))
              | Node (a, mk, mv, b) ->
                  Node (Node (ll, lk, lv, a), mk, mv, Node (b, k, v, r))
            end
      end
      else begin
        match r with
        | Leaf -> t
        | Node (rl, rk, rv, rr) ->
            if x = rk then Node (Node (l, k, v, rl), rk, rv, rr)
            else if x > rk then begin
              match splay x rr with
              | Leaf -> Node (Node (l, k, v, rl), rk, rv, rr)
              | Node (a, mk, mv, b) ->
                  Node (Node (Node (l, k, v, rl), rk, rv, a), mk, mv, b)
            end
            else begin
              match splay x rl with
              | Leaf -> Node (Node (l, k, v, rl), rk, rv, rr)
              | Node (a, mk, mv, b) ->
                  Node (Node (l, k, v, a), mk, mv, Node (b, rk, rv, rr))
            end
      end

let insert k v ~combine t =
  match splay k t with
  | Leaf -> Node (Leaf, k, v, Leaf)
  | Node (l, rk, rv, r) ->
      if rk = k then Node (l, k, combine v rv, r)
      else if k < rk then Node (l, k, v, Node (Leaf, rk, rv, r))
      else Node (Node (l, rk, rv, Leaf), k, v, r)

(* Splay the minimum to the root: resulting root has a Leaf left child. *)
let rec splay_min = function
  | Leaf -> Leaf
  | Node (Leaf, _, _, _) as t -> t
  | Node (Node (ll, lk, lv, lr), k, v, r) -> (
      match splay_min ll with
      | Leaf -> Node (ll, lk, lv, Node (lr, k, v, r))
      | Node (a, mk, mv, b) ->
          Node (a, mk, mv, Node (b, lk, lv, Node (lr, k, v, r))))

let rec splay_max = function
  | Leaf -> Leaf
  | Node (_, _, _, Leaf) as t -> t
  | Node (l, k, v, Node (rl, rk, rv, rr)) -> (
      match splay_max rr with
      | Leaf -> Node (Node (l, k, v, rl), rk, rv, rr)
      | Node (a, mk, mv, b) ->
          Node (Node (Node (l, k, v, rl), rk, rv, a), mk, mv, b))

let find_ge k t =
  match splay k t with
  | Leaf -> None
  | Node (l, rk, rv, r) as t' ->
      if rk >= k then Some (rk, rv, t')
      else begin
        (* All keys >= k, if any, are in [r]; its minimum is the answer. *)
        match splay_min r with
        | Leaf -> None
        | Node (Leaf, mk, mv, mr) ->
            Some (mk, mv, Node (Node (l, rk, rv, Leaf), mk, mv, mr))
        | Node (Node _, _, _, _) -> assert false
      end

let replace_root v = function
  | Leaf -> invalid_arg "Splay.replace_root: empty tree"
  | Node (l, k, _, r) -> Node (l, k, v, r)

let join l r =
  match splay_max l with
  | Leaf -> r
  | Node (a, k, v, Leaf) -> Node (a, k, v, r)
  | Node (_, _, _, Node _) -> assert false

let remove_root = function
  | Leaf -> invalid_arg "Splay.remove_root: empty tree"
  | Node (l, _, _, r) -> join l r

let rec depth_aux k t acc =
  match t with
  | Leaf -> acc
  | Node (l, rk, _, r) ->
      if k = rk then acc + 1
      else if k < rk then depth_aux k l (acc + 1)
      else depth_aux k r (acc + 1)

let depth_of k t = depth_aux k t 0

let rec to_sorted_list = function
  | Leaf -> []
  | Node (l, k, v, r) -> to_sorted_list l @ ((k, v) :: to_sorted_list r)

let check_invariant t =
  let rec go lo hi = function
    | Leaf -> true
    | Node (l, k, _, r) ->
        (match lo with Some lo -> k > lo | None -> true)
        && (match hi with Some hi -> k < hi | None -> true)
        && go lo (Some k) l && go (Some k) hi r
  in
  go None None t
