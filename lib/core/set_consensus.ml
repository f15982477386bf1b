open Consensus_poly
open Consensus_anxor
module Fcmp = Consensus_util.Fcmp
module Obs = Consensus_obs.Obs
module Deadline = Consensus_util.Deadline

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
  (* Lemma 1 with I = |pw ∩ W| and J = |pw \ W|: d_J = (|W| - I + J) /
     (|W| + J), with 0/0 = 0, is linear in I, so only F(1, y) and
     ∂F/∂x(1, y) matter.  A leaf of W maps to the dual number x = 1 + ε,
     every other leaf to y, so coefficient j of [a] is Pr(J = j) and of
     [b] is E[I·1{J = j}]. *)
  let f =
    Genfunc.bipoly
      (fun i -> if in_w.(i) then Bipoly.make ~a:Poly1.one ~b:Poly1.one else Bipoly.x)
      (Db.arena db)
  in
  let acc = ref 0. in
  for j = 0 to Poly1.degree f.a do
    let den = float_of_int (size_w + j) in
    if den > 0. then acc := !acc +. Poly1.coeff f.a j -. (Poly1.coeff f.b j /. den)
  done;
  !acc

(* Lemma 2's sweep, shared by the mean and both medians: [base] is in every
   candidate and [candidates] join it one at a time, in order; the first
   prefix of least expected distance wins. *)
let best_prefix db ~base candidates =
  let eval w =
    Deadline.check_current ();
    let w = List.sort compare w in
    (w, expected_jaccard db w)
  in
  let rec go ((_, d_best) as best) current = function
    | [] -> fst best
    | l :: rest ->
        let current = l :: current in
        let ((_, d) as cand) = eval current in
        go (if d < d_best then cand else best) current rest
  in
  go (eval base) base candidates

let by_marginal_desc db i j = Float.compare (Db.marginal db j) (Db.marginal db i)

let mean_jaccard db =
  if not (Db.is_independent db) then
    invalid_arg "Set_consensus.mean_jaccard: requires a tuple-independent database";
  algo_span "mean_jaccard" db @@ fun () ->
  let order = Array.init (Db.num_alts db) Fun.id in
  Array.sort (by_marginal_desc db) order;
  (* Lemma 2: the mean world is one of the n+1 probability-sorted prefixes. *)
  best_prefix db ~base:[] (Array.to_list order)

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
    |> List.sort (by_marginal_desc db)
  in
  best_prefix db ~base:forced optional

let median_jaccard_bid db =
  let blocks =
    match Db.xor_blocks db with
    | Some blocks -> blocks
    | None -> invalid_arg "Set_consensus.median_jaccard_bid: requires a BID database"
  in
  algo_span "median_jaccard_bid" db @@ fun () ->
  (* Per xor block (a block's leaves are mutually exclusive whatever their
     keys): its highest-probability alternative, first in leaf order on
     ties, and its mass.  Forced blocks (mass 1) are present in every
     world, so every candidate includes their best alternative. *)
  let nb = Array.fold_left (fun acc b -> max acc (b + 1)) 0 blocks in
  let best = Array.make nb (-1) and mass = Array.make nb 0. in
  Array.iteri
    (fun l b ->
      let m = Db.marginal db l in
      mass.(b) <- mass.(b) +. m;
      if best.(b) < 0 || m > Db.marginal db best.(b) then best.(b) <- l)
    blocks;
  let forced, optional =
    List.init nb Fun.id
    (* a block whose edges all had probability 0 holds no leaf *)
    |> List.filter (fun b -> best.(b) >= 0)
    |> List.partition (fun b -> forced_marginal mass.(b))
  in
  best_prefix db ~base:(List.map (Array.get best) forced)
    (List.map (Array.get best) optional |> List.sort (by_marginal_desc db))
