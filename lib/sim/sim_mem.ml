(* The engine's own primitives, not wrappers: see [Engine.Mem]. *)
include Engine.Mem
