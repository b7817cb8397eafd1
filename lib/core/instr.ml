(** Shared instrumentation shim: what a lock event is stamped with, and
    one guarded emit per event.

    A lock's [register ~tid ~cluster] is the one source of thread
    identity: it builds a {!t} with {!make}, and every event the handle
    emits carries that tid and cluster. Algorithms that need the
    identity themselves (CNA's and HBO's cluster, HCLH's local queue,
    GCR's park slot) read it from the same value, so no handle stores it
    twice.

    The [Sink.enabled] branch keeps the [M.now] read and the event
    allocation off the untraced path entirely; and because the
    simulator's [Now] effect schedules no event, even enabled tracing
    charges no simulated time — a traced run produces bit-identical lock
    behaviour to an untraced one. *)

type t = { sink : Numa_trace.Sink.t; tid : int; cluster : int }

let make (cfg : Lock_intf.config) ~tid ~cluster =
  { sink = cfg.Lock_intf.trace; tid; cluster }

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  let emit ev kind =
    if Numa_trace.Sink.enabled ev.sink then
      Numa_trace.Sink.record ev.sink ~at:(M.now ()) ~tid:ev.tid
        ~cluster:ev.cluster kind
end
