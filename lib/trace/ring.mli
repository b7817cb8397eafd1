(** In-memory bounded event buffer: the capture sink for tests, metric
    rollups and Chrome-trace export. Keeps the most recent [capacity]
    events (older ones are overwritten — bounded memory under arbitrarily
    long runs); a mutex makes pushes safe from concurrent native domains,
    and under the simulator the push order is the deterministic
    instrumentation order. *)

type t

val create : capacity:int -> t
val sink : t -> Sink.t

val events : t -> Event.t list
(** Retained events, oldest first. *)

val dropped : t -> int
(** How many old events were overwritten: events ever pushed minus
    those retained. *)
