open Consensus_anxor
module Api = Consensus.Api

let drop_leaf tree i =
  Tree.indexed tree
  |> Tree.filter_leaves (fun (j, _) -> j <> i)
  |> Tree.map snd

let valid_tree_case query db =
  Db.num_alts db >= 1 && Metamorph.compatible db query

let rebuild query tree =
  match Db.create tree with
  | db -> if valid_tree_case query db then Some Corpus.{ query; db } else None
  | exception Invalid_argument _ -> None

let drop_row probs i =
  Array.to_list probs
  |> List.filteri (fun j _ -> j <> i)
  |> Array.of_list

let drop_col probs i =
  Array.map
    (fun row -> Array.to_list row |> List.filteri (fun j _ -> j <> i) |> Array.of_list)
    probs

let candidates (case : Corpus.case) =
  match case.query with
  | Api.Aggregate (probs, flavor) ->
      let n = Array.length probs in
      let m = if n = 0 then 0 else Array.length probs.(0) in
      let rows =
        if n <= 1 then []
        else
          List.init n (fun i ->
              Corpus.
                { query = Api.Aggregate (drop_row probs i, flavor); db = case.db })
      in
      let cols =
        if m <= 1 then []
        else
          List.init m (fun i ->
              Corpus.
                { query = Api.Aggregate (drop_col probs i, flavor); db = case.db })
      in
      rows @ cols
  | query ->
      let tree = Db.tree case.db in
      let n = Tree.num_leaves tree in
      let leaf_drops =
        List.init n (fun i -> rebuild query (drop_leaf tree i))
        |> List.filter_map Fun.id
      in
      let simplified =
        let t' = Transform.simplify tree in
        if t' = tree then [] else Option.to_list (rebuild query t')
      in
      let k_drops =
        match query with
        | Api.Topk (k, metric, flavor) when k > 1 ->
            [ Corpus.{ query = Api.Topk (k - 1, metric, flavor); db = case.db } ]
        | _ -> []
      in
      leaf_drops @ simplified @ k_drops
