(** Streaming JSONL event sink ([--trace file.jsonl]): one compact JSON
    object per event, written as events happen, so a trace survives a
    crashed or interrupted run. A mutex serialises concurrent native
    domains; on the simulator writes land in deterministic event order. *)

val to_file : string -> Sink.t
(** Opens (truncates) [path]; [Sink.close] closes it. *)

val read_file : string -> (Event.t list, string) result
(** Parse a JSONL trace back, blank lines skipped — the round-trip used
    by [test_trace] and any offline analysis. *)
