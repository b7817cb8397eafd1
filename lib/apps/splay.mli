(** A persistent splay tree with integer keys.

    The Solaris libc allocator indexes free blocks by size in a splay
    tree; the property that matters for Table 2 — a freed block's node
    splays to the root, so the most recently deallocated block is the
    first match for the next allocation — holds here by construction:
    {!insert} and {!find_ge} both splay the touched node to the root.

    Duplicate keys are handled by the caller through the polymorphic
    value (e.g. a stack of equal-sized blocks). *)

type 'v t

val empty : 'v t

val insert : int -> 'v -> combine:('v -> 'v -> 'v) -> 'v t -> 'v t
(** [insert k v ~combine t] splays [k] to the root and stores [v] there;
    if [k] was present its old value [old] is replaced by
    [combine v old]. *)

val find_ge : int -> 'v t -> (int * 'v * 'v t) option
(** [find_ge k t] is the smallest key [>= k] with its value; the returned
    tree has that node at the root (so {!replace_root} / {!remove_root}
    apply to it). [None] if every key is smaller than [k]. *)

val replace_root : 'v -> 'v t -> 'v t
(** @raise Invalid_argument on an empty tree. *)

val remove_root : 'v t -> 'v t
(** @raise Invalid_argument on an empty tree. *)

val depth_of : int -> 'v t -> int
(** Number of nodes on the search path to [k] (or to where it would be);
    used by the allocator to charge path-proportional costs. *)

val to_sorted_list : 'v t -> (int * 'v) list
val check_invariant : 'v t -> bool
(** BST ordering invariant; for tests. *)
