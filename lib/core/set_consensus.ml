open Consensus_poly
open Consensus_anxor
module Fcmp = Consensus_util.Fcmp
module Obs = Consensus_obs.Obs

(* Shared forced-tuple test: a marginal (or block mass) within Fcmp
   tolerance of 1 denotes a tuple present in every possible world.  Both
   Jaccard median algorithms and the sym-diff tree DP route through this one
   predicate so the independent and BID paths classify identically. *)
let forced_marginal m = Fcmp.geq m 1.

let algo_span name db f =
  Obs.with_span
    ~attrs:(fun () -> [ ("alts", Obs.Int (Db.num_alts db)) ])
    ("core.set." ^ name)
    f

type world = int list

(* ---------- symmetric difference ---------- *)

let expected_sym_diff db w =
  let n = Db.num_alts db in
  let in_w = Array.make n false in
  List.iter (fun i -> in_w.(i) <- true) w;
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let m = Db.marginal db i in
    acc := !acc +. (if in_w.(i) then 1. -. m else m)
  done;
  !acc

let mean_sym_diff db =
  algo_span "mean_sym_diff" db @@ fun () ->
  let n = Db.num_alts db in
  List.init n Fun.id |> List.filter (fun i -> Db.marginal db i > 0.5)

let median_sym_diff db =
  algo_span "median_sym_diff" db @@ fun () ->
  (* Minimize Σ_{t∈W} (1 - 2 m_t) over possible worlds W: a leaf pays its
     inclusion gain; an xor node chooses its best child or the empty set
     when allowed; an and node sums its children.  Node ids are pre-order,
     so sweeping them from last to first finishes every child before its
     parent. *)
  let a = Db.arena db in
  let nn = Arena.num_nodes a in
  (* per node: best cost over all realizable sets, its leaves, and whether
     the subtree can realize ∅ *)
  let cost = Array.make nn 0. in
  let best = Array.make nn [] in
  let empty_ok = Array.make nn false in
  for n = nn - 1 downto 0 do
    let st = a.child_start.(n) in
    let stop = st + a.child_count.(n) in
    let kind = Arena.kind a n in
    if kind = Arena.kind_leaf then begin
      let i = a.leaf_ix.(n) in
      cost.(n) <- 1. -. (2. *. Db.marginal db i);
      best.(n) <- [ i ]
    end
    else if kind = Arena.kind_xor then begin
      let total = ref 0. in
      for j = st to stop - 1 do
        total := !total +. a.eprob.(a.children.(j))
      done;
      let ok = ref (not (forced_marginal !total)) in
      for j = st to stop - 1 do
        if empty_ok.(a.children.(j)) then ok := true
      done;
      (* If the node cannot realize ∅ it has at least one edge, so the scan
         below always finds a finite best. *)
      let c_best = ref (if !ok then 0. else infinity) and w_best = ref [] in
      for j = st to stop - 1 do
        let c = a.children.(j) in
        if cost.(c) < !c_best then begin
          c_best := cost.(c);
          w_best := best.(c)
        end
      done;
      cost.(n) <- !c_best;
      best.(n) <- !w_best;
      empty_ok.(n) <- !ok
    end
    else begin
      let c_sum = ref 0. and ok = ref true in
      for j = st to stop - 1 do
        let c = a.children.(j) in
        c_sum := !c_sum +. cost.(c);
        ok := !ok && empty_ok.(c)
      done;
      let w = ref [] in
      for j = stop - 1 downto st do
        w := best.(a.children.(j)) @ !w
      done;
      cost.(n) <- !c_sum;
      best.(n) <- !w;
      empty_ok.(n) <- !ok
    end
  done;
  List.sort compare best.(a.root)

(* ---------- Jaccard ---------- *)

let expected_jaccard db w =
  let in_w = Array.make (Db.num_alts db) false in
  List.iter (fun i -> in_w.(i) <- true) w;
  let size_w = List.length w in
  let f =
    Genfunc.bivariate
      (fun i -> if in_w.(i) then Poly2.x else Poly2.y)
      (Db.arena db)
  in
  (* coefficient of x^i y^j: Pr(|pw ∩ W| = i ∧ |pw \ W| = j);
     d_J = (|W| - i + j) / (|W| + j), with 0/0 = 0. *)
  Poly2.fold
    (fun i j c acc ->
      let num = float_of_int (size_w - i + j) in
      let den = float_of_int (size_w + j) in
      if den = 0. then acc else acc +. (c *. num /. den))
    f 0.

let mean_jaccard db =
  if not (Db.is_independent db) then
    invalid_arg "Set_consensus.mean_jaccard: requires a tuple-independent database";
  algo_span "mean_jaccard" db @@ fun () ->
  let n = Db.num_alts db in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare (Db.marginal db j) (Db.marginal db i)) order;
  (* Lemma 2: the mean world is one of the n+1 probability-sorted prefixes. *)
  let best = ref ([], expected_jaccard db []) in
  let prefix = ref [] in
  for i = 0 to n - 1 do
    prefix := order.(i) :: !prefix;
    let w = List.sort compare !prefix in
    let d = expected_jaccard db w in
    if d < snd !best then best := (w, d)
  done;
  fst !best

let median_jaccard db =
  if not (Db.is_independent db) then
    invalid_arg "Set_consensus.median_jaccard: requires a tuple-independent database";
  algo_span "median_jaccard" db @@ fun () ->
  let n = Db.num_alts db in
  let forced =
    List.init n Fun.id |> List.filter (fun i -> forced_marginal (Db.marginal db i))
  in
  let optional =
    List.init n Fun.id
    |> List.filter (fun i ->
           let m = Db.marginal db i in
           Fcmp.gt m 0. && not (forced_marginal m))
    |> List.sort (fun i j -> Float.compare (Db.marginal db j) (Db.marginal db i))
  in
  let best = ref (List.sort compare forced, expected_jaccard db forced) in
  let current = ref forced in
  List.iter
    (fun i ->
      current := i :: !current;
      let w = List.sort compare !current in
      let d = expected_jaccard db w in
      if d < snd !best then best := (w, d))
    optional;
  fst !best

let median_jaccard_bid db =
  if not (Db.is_bid db) then
    invalid_arg "Set_consensus.median_jaccard_bid: requires a BID database";
  algo_span "median_jaccard_bid" db @@ fun () ->
  (* Highest-probability alternative per key; forced keys (block mass 1)
     are present in every world, so every candidate includes them. *)
  let keys = Db.keys db in
  let best_alt key =
    List.fold_left
      (fun acc l ->
        match acc with
        | Some b when Db.marginal db b >= Db.marginal db l -> acc
        | _ -> Some l)
      None (Db.alts_of_key db key)
    |> Option.get
  in
  let forced, optional =
    Array.to_list keys
    |> List.partition (fun key -> forced_marginal (Db.key_marginal db key))
  in
  let base = List.map best_alt forced in
  let optional_alts =
    List.map best_alt optional
    |> List.sort (fun a b -> Float.compare (Db.marginal db b) (Db.marginal db a))
  in
  let candidate w = List.sort compare w in
  let best = ref (candidate base, expected_jaccard db (candidate base)) in
  let current = ref base in
  List.iter
    (fun l ->
      current := l :: !current;
      let w = candidate !current in
      let d = expected_jaccard db w in
      if d < snd !best then best := (w, d))
    optional_alts;
  fst !best
