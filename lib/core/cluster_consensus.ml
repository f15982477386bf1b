open Consensus_anxor
open Consensus_util
module Pool = Consensus_engine.Pool
module Obs = Consensus_obs.Obs
module Cache = Consensus_cache.Cache

let algo_span ?(attrs = fun () -> []) name ~n f =
  Obs.with_span
    ~attrs:(fun () -> ("keys", Obs.Int n) :: attrs ())
    ("core.cluster." ^ name)
    f

type clustering = int array

type t = { db : Db.t; pool : Pool.t; keys : int array; w : float array array }

let make ?pool db =
  let pool = Pool.resolve pool in
  let keys = Db.keys db in
  let nk = Array.length keys in
  algo_span "make" ~n:nk @@ fun () ->
  (* w_ij = Σ_{a,b: same value} Pr(a ∧ b) + Pr(neither key present), by
     inclusion-exclusion Pr(neither) = 1 − km_i − km_j + Σ_{a,b} Pr(a ∧ b).
     One pass over the alternative pairs accumulates both sums, in the
     order of [Db.key_pair_joint]'s folds, so every weight has the bits of
     [key_pair_joint ~f:(same value) +. key_pair_absent], clamped into
     [0, 1]: the cancellation can leave a zero weight at -1e-16.  Leaves
     without a common outermost xor node share no xor edge, and their joint
     is the product of their marginals, as [Db.pair_marginal] computes it.
     The upper triangle's rows run in parallel and are mirrored
     sequentially. *)
  let compute () =
    let leaves = Array.map (fun k -> Array.of_list (Db.alts_of_key db k)) keys in
    let key_marginal = Array.map (Db.key_marginal db) keys in
    let value = (Db.arena db).Arena.leaf_value in
    let outer = Array.init (Db.num_alts db) (Db.outer_xor db) in
    let marginal = Db.marginal_array db in
    (* The upper triangle's row of key i, i.e. w_ij for j > i. *)
    let upper_row i =
      let li = leaves.(i) and kmi = key_marginal.(i) in
      let row = Array.make (nk - i - 1) 0. in
      for j = i + 1 to nk - 1 do
        let lj = leaves.(j) in
        let same = ref 0. and all = ref 0. in
        for x = 0 to Array.length li - 1 do
          let a = li.(x) in
          let oa = outer.(a) and ma = marginal.(a) and va = value.(a) in
          for y = 0 to Array.length lj - 1 do
            let b = lj.(y) in
            let p =
              if oa < 0 || oa <> outer.(b) then ma *. marginal.(b)
              else Db.pair_marginal db a b
            in
            all := !all +. p;
            if va = value.(b) then same := !same +. p
          done
        done;
        let w = !same +. (1. -. kmi -. key_marginal.(j) +. !all) in
        row.(j - i - 1) <- Float.min 1. (Float.max 0. w)
      done;
      row
    in
    let upper = Pool.parallel_init ~pool ~stage:"cluster_weights" nk upper_row in
    let w = Array.make_matrix nk nk 1. in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun d p ->
            let j = i + 1 + d in
            w.(i).(j) <- p;
            w.(j).(i) <- p)
          row)
      upper;
    w
  in
  let w =
    Cache.memo Cache.Matrix ~family:"cluster_weights"
      ~digest:(fun () -> Db.digest db)
      ~params:[] compute
  in
  { db; pool; keys; w }

let db t = t.db
let pool t = t.pool
let num_keys t = Array.length t.keys
let weight t i j = t.w.(i).(j)

let expected_dist t (c : clustering) =
  let nk = num_keys t in
  if Array.length c <> nk then
    invalid_arg "Cluster_consensus.expected_dist: wrong clustering size";
  let acc = ref 0. in
  for i = 0 to nk - 1 do
    let wi = t.w.(i) and ci = c.(i) in
    for j = i + 1 to nk - 1 do
      if ci = c.(j) then acc := !acc +. (1. -. wi.(j))
      else acc := !acc +. wi.(j)
    done
  done;
  !acc

(* The unassigned keys stay ascending in [rest.(0 .. len-1)]; each round
   draws the (Prng.int rng len)-th of them as the pivot and compacts the
   survivors in place, keeping their order. *)
let pivot rng t =
  let nk = num_keys t in
  let labels = Array.make nk (-1) in
  let rest = Array.init nk Fun.id in
  let len = ref nk in
  let next_label = ref 0 in
  while !len > 0 do
    let p = rest.(Prng.int rng !len) in
    let label = !next_label in
    incr next_label;
    labels.(p) <- label;
    (* w is symmetric: row p holds every w_ip *)
    let wp = t.w.(p) in
    let kept = ref 0 in
    for r = 0 to !len - 1 do
      let i = rest.(r) in
      if i <> p then
        if wp.(i) > 0.5 then labels.(i) <- label
        else begin
          rest.(!kept) <- i;
          incr kept
        end
    done;
    len := !kept
  done;
  labels

let best_pivot_of rng ~trials t =
  if trials <= 0 then invalid_arg "Cluster_consensus.best_pivot_of: trials must be positive";
  algo_span "best_pivot_of" ~n:(num_keys t)
    ~attrs:(fun () -> [ ("trials", Obs.Int trials) ])
  @@ fun () ->
  let best = ref None in
  for _ = 1 to trials do
    let c = pivot rng t in
    let d = expected_dist t c in
    match !best with
    | Some (_, bd) when bd <= d -> ()
    | _ -> best := Some (c, d)
  done;
  fst (Option.get !best)

(* Single-key moves until none improves.  Putting key i in cluster l costs
   Σ_{j≠i} (c_j = l ? 1 − w_ij : w_ij) = W_i + S_l(i), with
   W_i = Σ_{j≠i} w_ij and S_l(i) = Σ_{j≠i, c_j = l} (1 − 2·w_ij).  One flat
   column S_l per label makes a candidate O(1) and a move O(n) (two columns
   updated).  Labels live in slots sorted by label value: the labels of [c0],
   then fresh labels (one above the highest used label).  Every slot above
   the highest used one is empty, so a fresh label reuses the next slot or
   appends one; an emptied slot's column is reset to exact zeros. *)
let local_search t c0 =
  let nk = num_keys t in
  if Array.length c0 <> nk then
    invalid_arg "Cluster_consensus.local_search: wrong clustering size";
  algo_span "local_search" ~n:nk @@ fun () ->
  let value = ref (Array.of_list (List.sort_uniq compare (Array.to_list c0))) in
  let slots = ref (Array.length !value) in
  let slot_of label =
    let rec find lo hi =
      let mid = (lo + hi) / 2 in
      if !value.(mid) = label then mid
      else if !value.(mid) < label then find (mid + 1) hi
      else find lo (mid - 1)
    in
    find 0 (!slots - 1)
  in
  let slot = Array.map slot_of c0 in
  let count = ref (Array.make !slots 0) in
  Array.iter (fun s -> !count.(s) <- !count.(s) + 1) slot;
  let col = ref (Array.init !slots (fun _ -> Array.make nk 0.)) in
  let wsum = Array.make nk 0. in
  for j = 0 to nk - 1 do
    let wj = t.w.(j) and sj = !col.(slot.(j)) in
    for i = 0 to nk - 1 do
      if i <> j then begin
        wsum.(i) <- wsum.(i) +. wj.(i);
        sj.(i) <- sj.(i) +. (1. -. (2. *. wj.(i)))
      end
    done
  done;
  let top = ref (!slots - 1) in
  (* Make slot [!top + 1] the fresh label, appending a slot if needed. *)
  let open_fresh () =
    let s = !top + 1 in
    if s = !slots then begin
      if s = Array.length !value then begin
        let grow a fill = Array.append a (Array.make s fill) in
        value := grow !value 0;
        count := grow !count 0;
        col := grow !col [||]
      end;
      !col.(s) <- Array.make nk 0.;
      incr slots
    end;
    !value.(s) <- !value.(!top) + 1;
    s
  in
  let move i target =
    let from = slot.(i) in
    let target = if target > !top then open_fresh () else target in
    let wi = t.w.(i) and sf = !col.(from) and st = !col.(target) in
    for k = 0 to nk - 1 do
      if k <> i then begin
        let d = 1. -. (2. *. wi.(k)) in
        sf.(k) <- sf.(k) -. d;
        st.(k) <- st.(k) +. d
      end
    done;
    slot.(i) <- target;
    !count.(from) <- !count.(from) - 1;
    !count.(target) <- !count.(target) + 1;
    if !count.(from) = 0 then Array.fill sf 0 nk 0.;
    if target > !top then top := target;
    while !count.(!top) = 0 do
      decr top
    done
  in
  let improved = ref true in
  while !improved do
    improved := false;
    Deadline.check_current ();
    for i = 0 to nk - 1 do
      let own = slot.(i) and wi = wsum.(i) in
      let best = ref own and best_cost = ref (wi +. !col.(own).(i)) in
      (* The fresh label (no members, so cost W_i) first, then the used
         labels ascending; only strict improvements count, so this order
         breaks near-ties. *)
      if wi < !best_cost -. 1e-12 then begin
        best := !top + 1;
        best_cost := wi
      end;
      for s = 0 to !top do
        if s <> own && !count.(s) > 0 then begin
          let cost = wi +. !col.(s).(i) in
          if cost < !best_cost -. 1e-12 then begin
            best := s;
            best_cost := cost
          end
        end
      done;
      if !best <> own then begin
        move i !best;
        improved := true
      end
    done
  done;
  Array.map (fun s -> !value.(s)) slot

let clustering_of_world t world =
  let nk = num_keys t in
  let key_pos = Hashtbl.create nk in
  Array.iteri (fun i key -> Hashtbl.replace key_pos key i) t.keys;
  (* Labels: hash distinct values to dense ids; absent keys share label -1
     mapped to a dedicated cluster. *)
  let labels = Array.make nk (-1) in
  let value_label = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun (a : Db.alt) ->
      match Hashtbl.find_opt key_pos a.key with
      | None -> ()
      | Some i ->
          let l =
            match Hashtbl.find_opt value_label a.value with
            | Some l -> l
            | None ->
                let l = !next in
                incr next;
                Hashtbl.replace value_label a.value l;
                l
          in
          labels.(i) <- l)
    world;
  (* absent cluster *)
  let absent_label = !next in
  Array.map (fun l -> if l = -1 then absent_label else l) labels

let best_of_worlds rng ~samples t =
  if samples <= 0 then invalid_arg "Cluster_consensus.best_of_worlds: samples must be positive";
  algo_span "best_of_worlds" ~n:(num_keys t)
    ~attrs:(fun () -> [ ("samples", Obs.Int samples) ])
  @@ fun () ->
  (* Derive one child generator per sample sequentially, then sample and
     score in parallel: the drawn worlds — hence the answer — depend only on
     [rng] and [samples], not on the pool's [jobs] setting. *)
  let rngs = Array.init samples (fun _ -> Prng.split rng) in
  let scored =
    Pool.parallel_map ~pool:t.pool ~stage:"cluster_sampling"
      (fun g ->
        let world = Worlds.sample g (Db.arena t.db) |> List.map (Db.alt t.db) in
        let c = clustering_of_world t world in
        (c, expected_dist t c))
      rngs
  in
  let best = ref None in
  Array.iter
    (fun (c, d) ->
      match !best with
      | Some (_, bd) when bd <= d -> ()
      | _ -> best := Some (c, d))
    scored;
  fst (Option.get !best)

let distance (c1 : clustering) (c2 : clustering) =
  let n = Array.length c1 in
  if Array.length c2 <> n then
    invalid_arg "Cluster_consensus.distance: size mismatch";
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let t1 = c1.(i) = c1.(j) and t2 = c2.(i) = c2.(j) in
      if t1 <> t2 then incr count
    done
  done;
  !count

let normalize c =
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  Array.map
    (fun l ->
      match Hashtbl.find_opt mapping l with
      | Some l' -> l'
      | None ->
          let l' = !next in
          incr next;
          Hashtbl.replace mapping l l';
          l')
    c
