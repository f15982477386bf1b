(** A bounded ring that keeps the newest [capacity] values pushed into it —
    the one wraparound buffer of the code base (the log ring, the GC-pause
    ring, the daemon's slow-request ring and the per-domain span buffers).

    Safe across domains and threads: a push and a fold each hold the
    ring's own mutex, and nothing else.  Slots are preallocated with a
    filler value, so a push allocates nothing.  The only read path is
    {!fold}, newest first. *)

type 'a t

val create : int -> 'a -> 'a t
(** [create capacity filler]: an empty ring of [capacity >= 1] slots, each
    holding [filler] until a push overwrites it.  Raises [Invalid_argument]
    on a capacity below 1.  Give a constant filler (one the compiler
    allocates statically): filling a large ring with a freshly allocated
    value first forces a minor collection of every domain. *)

val push : 'a t -> 'a -> unit
(** Append a value, overwriting the oldest once the ring is full. *)

val clear : 'a t -> unit
(** Drop every value (slots return to the filler, so the old values can be
    collected). *)

val fold : ?limit:int -> ?stop:('a -> bool) -> 'a t -> ('b -> 'a -> 'b) -> 'b -> 'b
(** [fold ?limit ?stop t f init] folds [f] over the retained values, newest
    first: over at most [limit] of them (all by default; a negative limit
    is 0), ending early after the first value [v] for which [stop v]
    holds.  The ring is locked for the whole fold, so [f] and [stop] see
    one consistent snapshot and must not touch the same ring. *)
