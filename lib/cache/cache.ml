module Obs = Consensus_obs.Obs
module Context = Consensus_obs.Context

type _ kind =
  | Rank_table : (int * float array) list kind
  | Matrix : float array array kind
  | Pairs : (int array * float array) kind
  | Prob : float kind

(* A resident entry: the payload with the witness of its kind. *)
type value = Value : 'a kind * 'a -> value

let unpack : type a. a kind -> value -> a option =
 fun kind (Value (stored, v)) ->
  match (kind, stored) with
  | Rank_table, Rank_table -> Some v
  | Matrix, Matrix -> Some v
  | Pairs, Pairs -> Some v
  | Prob, Prob -> Some v
  | _ -> None

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

(* ---------- Obs mirrors (no-ops while the obs subsystem is off) ---------- *)

let obs_hits = Obs.Counter.make ~help:"Probability-cache hits" "cache_hits_total"

let obs_misses =
  Obs.Counter.make ~help:"Probability-cache misses" "cache_misses_total"

let obs_evictions =
  Obs.Counter.make ~help:"Probability-cache evictions under capacity pressure"
    "cache_evictions_total"

let obs_bytes =
  Obs.Gauge.make ~help:"Estimated bytes resident in the probability cache"
    "cache_bytes_resident"

(* ---------- global state ---------- *)

let default_capacity_bytes = 64 * 1024 * 1024

(* The switch is read on every instrumented call site; everything else is
   touched under [mutex] only. *)
let switch = Atomic.make false
let mutex = Mutex.create ()
let lru : (string, value) Lru.t = Lru.create ~capacity:default_capacity_bytes
let hit_count = ref 0
let miss_count = ref 0
let reported_evictions = ref 0 (* evictions already mirrored to Obs *)
let eviction_base = ref 0 (* evictions at the last [reset_stats] *)

let set_enabled flag = Atomic.set switch flag

(* Per-domain bypass: a request served with [cache = false] must not read or
   write the shared cache even while the process-global switch is on.  The
   flag lives in domain-local storage, so it covers every lookup issued from
   the bypassing domain; chunks that migrate to engine worker domains keep
   the worker's own flag (lookups happen at memoization call sites on the
   submitting domain, so in practice the request is fully covered). *)
let bypass_key = Domain.DLS.new_key (fun () -> false)

let with_bypass flag f =
  let prev = Domain.DLS.get bypass_key in
  Domain.DLS.set bypass_key flag;
  Fun.protect ~finally:(fun () -> Domain.DLS.set bypass_key prev) f

let active () = Atomic.get switch && not (Domain.DLS.get bypass_key)

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let capacity_bytes () = locked (fun () -> Lru.capacity lru)

(* Mirror eviction/occupancy deltas to Obs; called with [mutex] held. *)
let sync_obs () =
  if Obs.enabled () then begin
    let ev = Lru.evictions lru in
    if ev > !reported_evictions then
      Obs.Counter.add obs_evictions (ev - !reported_evictions);
    reported_evictions := ev;
    Obs.Gauge.set obs_bytes (float_of_int (Lru.cost lru))
  end

let set_capacity_bytes capacity =
  locked (fun () ->
      Lru.set_capacity lru capacity;
      sync_obs ())

let clear () =
  locked (fun () ->
      Lru.clear lru;
      sync_obs ())

(* ---------- keys and costs ---------- *)

let key ~family ~digest ~params =
  String.concat "\x00" (family :: digest :: params)

(* Rough resident-byte estimates: an OCaml float array costs 8 bytes per
   element plus a header; boxed pairs and list cells ~3 words each.  The
   point is relative sizing for eviction, not accounting truth. *)
let value_cost : type a. a kind -> a -> int =
 fun kind v ->
  match kind with
  | Rank_table ->
      List.fold_left (fun acc (_, dist) -> acc + 64 + (8 * Array.length dist)) 0 v
  | Matrix ->
      Array.fold_left (fun acc row -> acc + 16 + (8 * Array.length row)) 16 v
  | Pairs ->
      let codes, probs = v in
      32 + (8 * Array.length codes) + (8 * Array.length probs)
  | Prob -> 16

(* ---------- operations ---------- *)

(* The family component of a key, for per-lookup span attribution. *)
let family_of_key key =
  match String.index_opt key '\x00' with
  | Some i -> String.sub key 0 i
  | None -> key

let find kind key =
  if not (active ()) then None
  else begin
    (* One span per lookup with the family and the outcome: explain plans
       ([Obs.Report]) fold these into per-family hit/miss attribution.
       Lookups are coarse (one per rank table / matrix), so the span is
       cheap relative to the work it memoizes. *)
    let hit = ref false in
    Obs.with_span
      ~attrs:(fun () ->
        [ ("family", Obs.Str (family_of_key key)); ("hit", Obs.Bool !hit) ])
      "cache.lookup"
    @@ fun () ->
    locked (fun () ->
        match Option.bind (Lru.find lru key) (unpack kind) with
        | Some v ->
            incr hit_count;
            hit := true;
            if Obs.enabled () then begin
              Obs.Counter.incr obs_hits;
              (* Per-request attribution: charge the lookup to the ambient
                 trace context so the daemon's access log agrees with the
                 explain profile folded from the cache.lookup spans. *)
              Context.note_cache ~hit:true
            end;
            Some v
        | None ->
            incr miss_count;
            if Obs.enabled () then begin
              Obs.Counter.incr obs_misses;
              Context.note_cache ~hit:false
            end;
            None)
  end

let store kind key v =
  if active () then
    locked (fun () ->
        Lru.add lru key ~cost:(value_cost kind v) (Value (kind, v));
        sync_obs ())

let memo kind ~family ~digest ~params compute =
  if not (active ()) then compute ()
  else
    let key = key ~family ~digest:(digest ()) ~params in
    match find kind key with
    | Some v -> v
    | None ->
        let v = compute () in
        store kind key v;
        v

let stats () =
  locked (fun () ->
      {
        hits = !hit_count;
        misses = !miss_count;
        evictions = Lru.evictions lru - !eviction_base;
        entries = Lru.length lru;
        bytes = Lru.cost lru;
      })

let reset_stats () =
  locked (fun () ->
      hit_count := 0;
      miss_count := 0;
      eviction_base := Lru.evictions lru)
