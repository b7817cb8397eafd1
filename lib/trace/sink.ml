type real = { emit : Event.t -> unit; close : unit -> unit }

type t = Noop | Real of real

let noop = Noop

let make ?(close = fun () -> ()) emit = Real { emit; close }

let enabled = function Noop -> false | Real _ -> true

let record t ~at ~tid ~cluster kind =
  match t with Noop -> () | Real r -> r.emit { Event.at; tid; cluster; kind }

let close = function Noop -> () | Real r -> r.close ()

let tee a b =
  match (a, b) with
  | Noop, s | s, Noop -> s
  | Real ra, Real rb ->
      Real
        {
          emit =
            (fun ev ->
              ra.emit ev;
              rb.emit ev);
          close =
            (fun () ->
              ra.close ();
              rb.close ());
        }
