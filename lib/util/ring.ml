type 'a t = {
  lock : Mutex.t;
  slots : 'a array;
  filler : 'a;
  mutable pushed : int; (* pushes since creation or the last [clear] *)
}

let create capacity filler =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { lock = Mutex.create (); slots = Array.make capacity filler; filler; pushed = 0 }

let push t x =
  Mutex.lock t.lock;
  Array.unsafe_set t.slots (t.pushed mod Array.length t.slots) x;
  t.pushed <- t.pushed + 1;
  Mutex.unlock t.lock

let clear t =
  Mutex.protect t.lock (fun () ->
      Array.fill t.slots 0 (Array.length t.slots) t.filler;
      t.pushed <- 0)

let never _ = false

let fold ?(limit = max_int) ?(stop = never) t f init =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.slots in
      (* [pushed] and the slot it implies are read together under the lock. *)
      let newest = t.pushed - 1 in
      let n = min (max 0 limit) (min t.pushed cap) in
      let rec go acc i =
        if i >= n then acc
        else
          let x = Array.unsafe_get t.slots ((newest - i) mod cap) in
          let acc = f acc x in
          if stop x then acc else go acc (i + 1)
      in
      go init 0)
