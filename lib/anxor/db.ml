type alt = { key : int; value : float }

type t = {
  arena : Arena.t;
  (* Pointer-tree view, materialized on demand: the arena is the canonical
     representation, and the streaming loader never builds a tree at all.
     [create] seeds [tree_v] with the caller's tree for free. *)
  tree_v : alt Tree.t Lazy.t;
  alts : alt array;
  keys : int array;
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
  { arena; tree_v; alts; keys; alts_of_key; marginals; paths; digest = None;
    distinct = None }

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

let blocks_single_key db =
  match xor_blocks db with
  | None -> false
  | Some blocks ->
      let key_of_block = Hashtbl.create 16 in
      let ok = ref true in
      Array.iteri
        (fun l b ->
          let key = db.alts.(l).key in
          match Hashtbl.find_opt key_of_block b with
          | Some k when k <> key -> ok := false
          | Some _ -> ()
          | None -> Hashtbl.replace key_of_block b key)
        blocks;
      !ok

let scores_distinct db =
  match db.distinct with
  | Some d -> d
  | None ->
      (* Sort a copy of the values and compare neighbours, with
         [Float.compare]'s equality: NaN equals NaN, -0. equals 0. *)
      let v = Array.copy db.arena.Arena.leaf_value in
      Array.sort Float.compare v;
      let d = ref true in
      for i = 1 to Array.length v - 1 do
        if Float.compare v.(i - 1) v.(i) = 0 then d := false
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
