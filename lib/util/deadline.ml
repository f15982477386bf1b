type t = { deadline : float; cancelled : bool Atomic.t }

exception Expired

let none = { deadline = infinity; cancelled = Atomic.make false }

let make ?(deadline = infinity) () = { deadline; cancelled = Atomic.make false }

let after s = make ~deadline:(Unix.gettimeofday () +. s) ()

(* [none] is shared process-wide; cancelling it would expire every request
   that never asked for a deadline. *)
let cancel t = if t != none then Atomic.set t.cancelled true

let deadline t = t.deadline

let expired t =
  Atomic.get t.cancelled
  || (t.deadline < infinity && Unix.gettimeofday () >= t.deadline)

let check t = if expired t then raise Expired

let key = Domain.DLS.new_key (fun () -> none)

let current () = Domain.DLS.get key

let with_current t f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let check_current () = check (Domain.DLS.get key)
