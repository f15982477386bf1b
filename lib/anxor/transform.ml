let rec simplify (t : 'a Tree.t) : 'a Tree.t =
  match t with
  | Tree.Leaf _ -> t
  | Tree.And children ->
      let children =
        List.map simplify children
        |> List.concat_map (function
             | Tree.And cs -> cs (* flatten *)
             | c -> [ c ])
      in
      (match children with [ c ] -> c | cs -> Tree.and_ cs)
  | Tree.Xor edges ->
      let edges = List.map (fun (p, c) -> (p, simplify c)) edges in
      (* Distribute nested xors and fold empty subtrees into residual. *)
      let edges =
        List.concat_map
          (fun (p, c) ->
            match c with
            | Tree.Xor inner ->
                List.map (fun (q, gc) -> (p *. q, gc)) inner
                (* the inner residual mass (if any) becomes outer residual
                   automatically: Σ p·q <= p *)
            | Tree.And [] -> [] (* empty world: residual mass *)
            | _ -> [ (p, c) ])
          edges
      in
      (match edges with
      | [ (p, c) ] when Consensus_util.Fcmp.approx ~eps:1e-12 p 1. -> c
      | es -> Tree.xor es)

let is_equivalent ?limit t1 t2 =
  let table t =
    let tbl = Hashtbl.create 64 in
    Worlds.enumerate ?limit t
    |> List.iter (fun (p, w) ->
           let key = List.sort compare w in
           Hashtbl.replace tbl key
             (p +. Option.value (Hashtbl.find_opt tbl key) ~default:0.));
    tbl
  in
  let tb1 = table t1 and tb2 = table t2 in
  let check a b =
    Hashtbl.fold
      (fun key p acc ->
        acc
        && Consensus_util.Fcmp.approx ~eps:1e-9 p
             (Option.value (Hashtbl.find_opt b key) ~default:0.))
      a true
  in
  check tb1 tb2 && check tb2 tb1

(* ---------- metamorphic rewrites (differential-testing layer) ----------

   Each rewrite below preserves the leaf-set distribution at a documented
   level (exactly, or at the payload-multiset level); lib/oracle pairs them
   with the invariant the optimized algorithms must satisfy. *)

let shuffle_siblings rng t =
  let shuffle_list rng l =
    let a = Array.of_list l in
    Consensus_util.Prng.shuffle rng a;
    Array.to_list a
  in
  let rec go (t : 'a Tree.t) : 'a Tree.t =
    match t with
    | Tree.Leaf _ -> t
    | Tree.And cs -> Tree.and_ (shuffle_list rng (List.map go cs))
    | Tree.Xor es ->
        Tree.xor (shuffle_list rng (List.map (fun (p, c) -> (p, go c)) es))
  in
  go t

let pad_absent ~copies t =
  if copies < 0 then invalid_arg "Transform.pad_absent: negative copies";
  Tree.and_ (t :: List.init copies (fun _ -> Tree.xor []))

let split_leaf rng t =
  let n = Tree.num_leaves t in
  if n = 0 then t
  else begin
    let target = Consensus_util.Prng.int rng n in
    let counter = ref (-1) in
    let split_edge p a =
      [ (p /. 2., Tree.leaf a); (p /. 2., Tree.leaf a) ]
    in
    let rec go (t : 'a Tree.t) : 'a Tree.t =
      match t with
      | Tree.Leaf a ->
          incr counter;
          if !counter = target then Tree.xor (split_edge 1. a) else t
      | Tree.And cs -> Tree.and_ (List.map go cs)
      | Tree.Xor es ->
          Tree.xor
            (List.concat_map
               (fun (p, c) ->
                 match c with
                 | Tree.Leaf a ->
                     incr counter;
                     if !counter = target then split_edge p a else [ (p, c) ]
                 | _ -> [ (p, go c) ])
               es)
    in
    go t
  end

let merge_twin_edges t =
  let rec go (t : 'a Tree.t) : 'a Tree.t =
    match t with
    | Tree.Leaf _ -> t
    | Tree.And cs -> Tree.and_ (List.map go cs)
    | Tree.Xor es ->
        let es = List.map (fun (p, c) -> (p, go c)) es in
        let merged =
          List.fold_left
            (fun acc (p, c) ->
              match List.partition (fun (_, c') -> c' = c) acc with
              | [ (q, _) ], rest -> (q +. p, c) :: rest
              | _ -> (p, c) :: acc)
            [] es
        in
        Tree.xor (List.rev merged)
  in
  go t
