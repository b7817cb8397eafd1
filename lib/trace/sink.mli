(** The [TRACE] sink contract: where instrumented locks put their events.

    A sink is either {!noop} — the default in [Lock_intf.default], a
    single immediate-constructor test that instrumentation sites branch
    on, so disabled tracing costs one comparison and performs no memory
    operation, no timestamp read and no allocation — or a real sink built
    with {!make} ({!Ring.sink} and {!Jsonl.to_file} are the two
    in-tree producers).

    Instrumentation idiom (inside a lock functor over [MEMORY]): the
    handle built by [register ~tid ~cluster] holds
    [ev = Cohort.Instr.make cfg ~tid ~cluster], and each event site is
    {[
      I.emit th.ev Event.Acquire_global
    ]}
    which stamps the event with the identity given at [register]:
    {[
      if Sink.enabled ev.sink then
        Sink.record ev.sink ~at:(M.now ()) ~tid:ev.tid ~cluster:ev.cluster
          Event.Acquire_global
    ]}
    The [enabled] guard keeps the [M.now ()] read and the event
    allocation out of the untraced fast path. On the simulator [now] is
    handled without scheduling an event, so tracing never perturbs
    simulated time — golden pins hold with tracing on or off. *)

type t

val noop : t
(** Discards everything; [enabled] is [false]. *)

val make : ?close:(unit -> unit) -> (Event.t -> unit) -> t
(** [make emit] is a sink delivering each event to [emit]. The producer
    is responsible for its own thread-safety: under the native runtime
    events arrive concurrently from every domain. *)

val enabled : t -> bool
val record : t -> at:int -> tid:int -> cluster:int -> Event.kind -> unit

val close : t -> unit

val tee : t -> t -> t
(** Both sinks receive every event; [noop] is an identity element. *)
