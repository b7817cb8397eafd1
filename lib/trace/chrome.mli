(** Chrome [trace_event] export: load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} to see lock ownership as a
    timeline — one process row per NUMA cluster, one track per thread,
    each critical section a complete ("X") slice from its acquire to its
    release, with aborts and starvation-limit hits as instant markers.
    Cohort batching is directly visible as runs of slices within one
    cluster row. *)

val of_events : Event.t list -> Json.t
(** Events must be in chronological order (as delivered by a sink). *)

val write_file : string -> Event.t list -> unit

val open_trace : string option -> Sink.t * (unit -> unit)
(** The [--trace FILE] sink and the action that lands the file once the
    runs are done: a [.jsonl] suffix streams JSONL ({!Jsonl.to_file}),
    anything else buffers the most recent 1 Mi events in a {!Ring} and
    writes them as a Chrome trace. [None] is the no-op sink. *)
