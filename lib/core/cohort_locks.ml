(* The composition table: every cohort lock is one application of
   {!Cohorting.Make} or {!Cohorting.Abortable}, made here and nowhere
   else. *)

module LI = Lock_intf

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module Bo = Bo_lock.Make (M)
  module Tkt = Ticket_lock.Make (M)
  module Mcs = Mcs_lock.Make (M)
  module Clh = Clh_lock.Make (M)
  module Blk = Park_lock.Make (M)

  let globals : (string * (module LI.GLOBAL)) list =
    [
      ("BO", (module Bo.Global)); ("TKT", (module Tkt.Global));
      ("MCS", (module Mcs.Global)); ("CLH", (module Clh.Global));
    ]

  let locals : (string * (module LI.LOCAL)) list =
    [
      ("BO", (module Bo.Local)); ("TKT", (module Tkt.Local));
      ("MCS", (module Mcs.Local)); ("CLH", (module Clh.Local));
    ]

  let name g l = Printf.sprintf "C-%s-%s" g l

  let compose ~global:(g, (module G : LI.GLOBAL))
      ~local:(l, (module L : LI.LOCAL)) : (module LI.LOCK) =
    (module Cohorting.Make
              (struct
                let name = name g l
              end)
              (M)
              (G)
              (L))

  (* Row-major, globals x locals. *)
  let all =
    List.concat_map
      (fun g ->
        List.map
          (fun l -> (name (fst g) (fst l), compose ~global:g ~local:l))
          locals)
      globals

  let get ~global ~local =
    let check what axis n =
      if not (List.mem_assoc n axis) then
        invalid_arg (Printf.sprintf "Cohort_locks.get: unknown %s lock %S" what n)
    in
    check "global" globals global;
    check "local" locals local;
    List.assoc (name global local) all

  let abortable l (module L : LI.ABORTABLE_LOCAL) : (module LI.ABORTABLE_LOCK) =
    (module Cohorting.Abortable
              (struct
                let name = "A-" ^ name "BO" l
              end)
              (M)
              (L))

  let a_c_bo_bo = abortable "BO" (module Bo.Abortable_local)
  let a_c_bo_clh = abortable "CLH" (module Clh.Abortable_local)

  let c_blk_blk =
    compose ~global:("BLK", (module Blk.Global)) ~local:("BLK", (module Blk.Local))

  let c_rw_wp : (module LI.RW_LOCK) =
    let module W = (val get ~global:"BO" ~local:"MCS") in
    (module Rw_cohort.Make
              (struct
                let name = "C-RW-WP<BO-MCS>"
              end)
              (M)
              (W))
end
