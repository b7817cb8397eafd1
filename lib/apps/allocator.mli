(** A single-lock memory allocator modelled on the default Solaris libc
    malloc the paper evaluates in Table 2: free blocks indexed by size in
    a splay tree, so the most recently freed block of a size class is the
    first one recycled — the behaviour that lets cohort locks keep
    blocks, headers and tree lines circulating within one NUMA cluster.

    Thread safety is the caller's: all operations must run under one
    external lock, like the libc allocator's. *)

module Make (M : Numa_base.Memory_intf.MEMORY) : sig
  type block = private {
    bid : int;  (** unique block id. *)
    size : int;
    header : int M.cell;
    data : int M.cell;
    mutable allocated : bool;
  }

  type stats = {
    mutable allocs : int;
    mutable frees : int;
    mutable fresh_blocks : int;  (** served by extending the heap. *)
    mutable recycled : int;  (** served from the free tree. *)
  }

  type t

  exception Double_free of int

  val create : unit -> t
  val stats : t -> stats

  val malloc : t -> size:int -> block
  (** Best-fit allocation (smallest free block of size >= [size]), LIFO
      within a size class; grows the heap when nothing fits.
      @raise Invalid_argument if [size <= 0]. *)

  val free : t -> block -> unit
  (** @raise Double_free on a block that is not currently allocated. *)

  val write_data : block -> int -> unit
  (** The application-side write to the allocated memory (mmicro
      initialises the first words of every block). *)

  val read_data : block -> int
end
