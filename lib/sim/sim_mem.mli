(** The simulated implementation of {!Numa_base.Memory_intf.MEMORY}:
    the engine's own primitives ({!Engine.Mem}), re-exported so that a
    lock's call reaches the engine fast path with no wrapper between.

    Operations may only be called from within a thread body running under
    {!Engine.run}; calling them elsewhere raises [Effect.Unhandled].
    Cell and line {e creation} is pure and may happen anywhere (e.g. when
    constructing a lock before the run starts).

    [init] is the one host-side write: it stores the value between runs,
    never from a thread body, charging nothing and waking nobody. A cell
    re-initialised on a line that an earlier run touched costs its next
    run exactly what a fresh cell would: the new run's epoch leaves the
    line Invalid everywhere, so the first access is a memory miss. *)

include Numa_base.Memory_intf.MEMORY
