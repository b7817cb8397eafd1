(** Chrome [trace_event] export: load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} to see lock ownership as a
    timeline — one process row per NUMA cluster, one track per thread,
    each critical section a complete ("X") slice from its acquire to its
    release, with aborts and starvation-limit hits as instant markers.
    Cohort batching is directly visible as runs of slices within one
    cluster row. *)

val write : string -> Ring.t -> string option
(** [write path ring] writes the ring's events to [path] as a Chrome
    trace. When the ring dropped older events, it returns a note for
    the user: how many the file kept and dropped, and that a [.jsonl]
    trace keeps them all. *)

val open_trace : string option -> Sink.t * (unit -> string option)
(** The [--trace FILE] sink and the action that lands the file once the
    runs are done: a [.jsonl] suffix streams JSONL ({!Jsonl.to_file}),
    anything else keeps the most recent 1 Mi events in a {!Ring} and
    {!write}s them. [None] is the no-op sink. *)
