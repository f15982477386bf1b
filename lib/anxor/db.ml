type alt = { key : int; value : float }

type t = {
  arena : Arena.t;
  (* Pointer-tree view, materialized on demand: the arena is the canonical
     representation, and the streaming loader never builds a tree at all.
     [create] seeds [tree_v] with the caller's tree for free. *)
  tree_v : alt Tree.t Lazy.t;
  alts : alt array;
  keys : int array;
  (* [key_rows], built on first use. *)
  rows : int array option Atomic.t;
  alts_of_key : (int, int list) Hashtbl.t;
  marginals : float array;
  (* For each leaf, the xor edges on its root path as (xor node id, child
     index, edge probability), outermost first.  Lets pair marginals run in
     O(depth). *)
  paths : (int * int * float) array array;
  (* Content hash of the arena, computed on first use.  Benign race:
     concurrent initializers write the same immutable string. *)
  mutable digest : string option;
  (* [scores_distinct], computed on first use under the same benign race. *)
  mutable distinct : bool option;
  (* [score_order], sorted on first use.  Both arrays are filled in place
     and published through their atomic, so a reader sees them only after
     they are complete. *)
  order : int array option Atomic.t;
}

(* Serializes lazy forcing: [Lazy.force] from two domains at once raises
   [Lazy.Undefined], and databases are shared read-only across the pool. *)
let force_lock = Mutex.create ()

let force_shared (v : _ Lazy.t) =
  if Lazy.is_val v then Lazy.force v
  else begin
    Mutex.lock force_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock force_lock) (fun () ->
        Lazy.force v)
  end

let of_arena_internal ?(check = true) ~tree_v arena =
  if check then begin
    match Arena.check_keys arena with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Db.create: " ^ msg)
  end;
  let n = Arena.num_leaves arena in
  let alts =
    Array.init n (fun i ->
        { key = arena.Arena.leaf_key.(i); value = arena.Arena.leaf_value.(i) })
  in
  let alts_of_key = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun i a ->
      let prev = Option.value (Hashtbl.find_opt alts_of_key a.key) ~default:[] in
      Hashtbl.replace alts_of_key a.key (i :: prev))
    alts;
  Hashtbl.iter (fun k v -> Hashtbl.replace alts_of_key k (List.rev v)) alts_of_key;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) alts_of_key []
    |> List.sort compare |> Array.of_list
  in
  let marginals = Arena.marginals arena in
  let paths = Arena.leaf_paths arena in
  { arena; tree_v; alts; keys; rows = Atomic.make None; alts_of_key; marginals;
    paths; digest = None; distinct = None; order = Atomic.make None }

let of_arena ?check arena =
  let tree_v = lazy (Arena.to_tree arena ~leaf:(fun ~key ~value -> { key; value })) in
  of_arena_internal ?check ~tree_v arena

let create ?check tree =
  let arena =
    Arena.of_tree ~key:(fun a -> a.key) ~value:(fun a -> a.value) tree
  in
  of_arena_internal ?check ~tree_v:(Lazy.from_val tree) arena

let independent tuples =
  create (Tree.independent (List.map (fun (k, v, p) -> (p, { key = k; value = v })) tuples))

let bid blocks =
  create
    (Tree.bid
       (List.map
          (fun (k, alts) -> List.map (fun (p, v) -> (p, { key = k; value = v })) alts)
          blocks))

let arena db = db.arena
let tree db = force_shared db.tree_v
let num_alts db = Array.length db.alts
let num_keys db = Array.length db.keys
let keys db = Array.copy db.keys

(* The index of the first of the sorted [keys] that is >= [key]. *)
let lower_bound keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let key_index db key =
  let i = lower_bound db.keys key in
  if i < Array.length db.keys && db.keys.(i) = key then Some i else None

(* A per-database array computed on first use.  A racing domain may publish
   first: every caller then shares its array. *)
let memo cell compute =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = compute () in
      if Atomic.compare_and_set cell None (Some v) then v
      else Option.get (Atomic.get cell)

let key_rows db =
  memo db.rows (fun () ->
      let keys = db.keys and leaf_key = db.arena.Arena.leaf_key in
      let nkeys = Array.length keys in
      (* [keys] is sorted and duplicate-free: a span of [nkeys - 1] means
         consecutive integers, and a row is an offset *)
      if nkeys > 0 && keys.(nkeys - 1) - keys.(0) = nkeys - 1 then
        Array.map (fun key -> key - keys.(0)) leaf_key
      else Array.map (lower_bound keys) leaf_key)

let alt db i = db.alts.(i)

let alts_of_key db k =
  match Hashtbl.find_opt db.alts_of_key k with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Db.alts_of_key: unknown key %d" k)

let marginal db i = db.marginals.(i)
let marginal_array db = db.marginals

let key_marginal db k =
  List.fold_left (fun acc i -> acc +. marginal db i) 0. (alts_of_key db k)

let pair_marginal db i j =
  if i = j then marginal db i
  else begin
    let pi = db.paths.(i) and pj = db.paths.(j) in
    (* Walk the shared prefix; on divergence at the same xor node the leaves
       are mutually exclusive. *)
    let len = min (Array.length pi) (Array.length pj) in
    let rec prefix idx acc =
      if idx >= len then (acc, true)
      else
        let (ni, ci, p) = pi.(idx) and (nj, cj, _) = pj.(idx) in
        if ni = nj then
          if ci = cj then prefix (idx + 1) (acc *. p) else (acc, false)
        else (acc, true)
    in
    let shared, consistent = prefix 0 1. in
    if not consistent then 0.
    else
      (* shared = product over the common xor-edge prefix; the remaining
         edges of both paths are independent choices. *)
      marginal db i *. marginal db j /. shared
  end

let outer_xor db i =
  let path = db.paths.(i) in
  if Array.length path = 0 then -1
  else
    let node, _, _ = path.(0) in
    node

let pair_absent db i j =
  1. -. marginal db i -. marginal db j +. pair_marginal db i j

let key_pair_joint db k1 k2 ~f =
  if k1 = k2 then invalid_arg "Db.key_pair_joint: keys must differ";
  List.fold_left
    (fun acc i ->
      List.fold_left
        (fun acc j ->
          if f db.alts.(i) db.alts.(j) then acc +. pair_marginal db i j else acc)
        acc (alts_of_key db k2))
    0. (alts_of_key db k1)

let key_pair_absent db k1 k2 =
  if k1 = k2 then invalid_arg "Db.key_pair_absent: keys must differ";
  (* Inclusion-exclusion over key presence events. *)
  1. -. key_marginal db k1 -. key_marginal db k2
  +. key_pair_joint db k1 k2 ~f:(fun _ _ -> true)

let block_shape db ~singleton = Arena.bid_shape db.arena ~singleton
let is_independent db = block_shape db ~singleton:true
let is_bid db = block_shape db ~singleton:false
let xor_blocks db = Arena.xor_blocks db.arena

(* In-place quicksort of [order] by decreasing [value.(i)] (insertion sort
   below 16 elements, median-of-three pivots, recursion on the smaller
   partition only).  [Array.sort] with a float-comparing closure costs a
   polymorphic-closure call per comparison; on a million alternatives this
   inlined comparison is the difference between the sort being free and the
   sort dominating the sweep.  Sorts [order.(0 .. n-1)]; NaN is unordered
   under [<], so those entries must be NaN-free. *)
let sort_by_value_desc (value : float array) (order : int array) n =
  let swap i j =
    let t = Array.unsafe_get order i in
    Array.unsafe_set order i (Array.unsafe_get order j);
    Array.unsafe_set order j t
  in
  (* Comparisons are spelled out as direct array reads: a [v i] float helper
     would box its return on every call, and the shared int ref [jr] is the
     only cell the whole sort allocates.  Locally-bound floats ([xv], [pv])
     stay unboxed because they never cross a function boundary. *)
  let jr = ref 0 in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let x = Array.unsafe_get order i in
      let xv = Array.unsafe_get value x in
      jr := i - 1;
      while
        !jr >= lo && Array.unsafe_get value (Array.unsafe_get order !jr) < xv
      do
        Array.unsafe_set order (!jr + 1) (Array.unsafe_get order !jr);
        decr jr
      done;
      Array.unsafe_set order (!jr + 1) x
    done
  in
  (* natural-run fast paths: rank inputs frequently arrive already sorted
     by score (or reverse-sorted), and the O(n) scan is free next to the
     O(n log n) sort it skips *)
  let ascending = ref true and descending = ref true in
  for i = 1 to n - 1 do
    let a = Array.unsafe_get value (Array.unsafe_get order (i - 1))
    and b = Array.unsafe_get value (Array.unsafe_get order i) in
    if a < b then descending := false else if a > b then ascending := false
  done;
  let rec qsort lo hi =
    if hi - lo < 16 then (if hi > lo then insertion lo hi)
    else begin
      (* median of three to the pivot slot [hi] *)
      let mid = lo + ((hi - lo) / 2) in
      if
        Array.unsafe_get value (Array.unsafe_get order lo)
        < Array.unsafe_get value (Array.unsafe_get order mid)
      then swap lo mid;
      if
        Array.unsafe_get value (Array.unsafe_get order lo)
        < Array.unsafe_get value (Array.unsafe_get order hi)
      then swap lo hi;
      if
        Array.unsafe_get value (Array.unsafe_get order hi)
        < Array.unsafe_get value (Array.unsafe_get order mid)
      then swap mid hi;
      let pv = Array.unsafe_get value (Array.unsafe_get order hi) in
      jr := lo;
      for j = lo to hi - 1 do
        if Array.unsafe_get value (Array.unsafe_get order j) > pv then begin
          swap !jr j;
          incr jr
        end
      done;
      let i = !jr in
      swap i hi;
      (* recurse on the smaller side first: O(log n) stack depth *)
      if i - lo < hi - i then begin
        qsort lo (i - 1);
        qsort (i + 1) hi
      end
      else begin
        qsort (i + 1) hi;
        qsort lo (i - 1)
      end
    end
  in
  if !descending then ()
  else if !ascending then
    for i = 0 to (n / 2) - 1 do
      swap i (n - 1 - i)
    done
  else qsort 0 (n - 1)

(* NaN scores go last, in leaf order, where [Float.compare]'s descending
   order puts them; the others are sorted by [sort_by_value_desc]. *)
let compute_score_order db =
  let value = db.arena.Arena.leaf_value in
  let n = Array.length value in
  let nans = ref 0 in
  for l = 0 to n - 1 do
    if Float.is_nan (Array.unsafe_get value l) then incr nans
  done;
  let order = Array.make n 0 in
  let lo = ref 0 and hi = ref (n - !nans) in
  for l = 0 to n - 1 do
    if Float.is_nan (Array.unsafe_get value l) then begin
      order.(!hi) <- l;
      incr hi
    end
    else begin
      order.(!lo) <- l;
      incr lo
    end
  done;
  sort_by_value_desc value order !lo;
  order

let score_order db = memo db.order (fun () -> compute_score_order db)

let scores_distinct db =
  match db.distinct with
  | Some d -> d
  | None ->
      (* Neighbours in the score order, with [Float.compare]'s equality:
         -0. equals 0., and NaN equals NaN, so two NaNs are a tie. *)
      let value = db.arena.Arena.leaf_value in
      let order = score_order db in
      let n = Array.length order in
      (* the NaNs are the order's tail *)
      let nans = ref 0 in
      while !nans < n && Float.is_nan value.(order.(n - 1 - !nans)) do
        incr nans
      done;
      let d = ref (!nans < 2) in
      for i = 1 to n - !nans - 1 do
        if value.(order.(i - 1)) = value.(order.(i)) then d := false
      done;
      db.distinct <- Some !d;
      !d

let digest db =
  match db.digest with
  | Some d -> d
  | None ->
      (* Hashing the arena's flat arrays covers the exact structure and float
         bits without materializing a tree: structurally equal databases
         share the digest, any change to shape, probabilities, keys or values
         produces a different one. *)
      let d = Arena.digest db.arena in
      db.digest <- Some d;
      d

let pp ppf db =
  let pp_alt ppf a = Format.fprintf ppf "(t%d,%g)" a.key a.value in
  Tree.pp pp_alt ppf (tree db)
