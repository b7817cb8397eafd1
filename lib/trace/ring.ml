type t = {
  buf : Event.t option array;
  mutable head : int;  (* next write position *)
  mutable pushed : int;  (* total events ever pushed *)
  mu : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  {
    buf = Array.make capacity None;
    head = 0;
    pushed = 0;
    mu = Mutex.create ();
  }

let push r ev =
  Mutex.lock r.mu;
  r.buf.(r.head) <- Some ev;
  r.head <- (r.head + 1) mod Array.length r.buf;
  r.pushed <- r.pushed + 1;
  Mutex.unlock r.mu

let sink r = Sink.make (push r)

let events r =
  Mutex.lock r.mu;
  let cap = Array.length r.buf in
  let n = min r.pushed cap in
  let start = (r.head - n + cap) mod cap in
  let out =
    List.init n (fun i ->
        match r.buf.((start + i) mod cap) with
        | Some e -> e
        | None -> assert false)
  in
  Mutex.unlock r.mu;
  out

let dropped r = max 0 (r.pushed - Array.length r.buf)
let length r = min r.pushed (Array.length r.buf)
