type 'a t = Leaf of 'a | And of 'a t list | Xor of (float * 'a t) list

let prob_eps = 1e-9

let leaf a = Leaf a
let and_ children = And children

let xor edges =
  let edges = List.filter (fun (p, _) -> p <> 0.) edges in
  let total =
    List.fold_left
      (fun acc (p, _) ->
        if not (Float.is_finite p) || p < 0. then
          invalid_arg "Tree.xor: edge probability must be a non-negative float";
        acc +. p)
      0. edges
  in
  if total > 1. +. prob_eps then
    invalid_arg (Printf.sprintf "Tree.xor: edge probabilities sum to %g > 1" total);
  Xor edges

let independent tuples = And (List.map (fun (p, a) -> xor [ (p, Leaf a) ]) tuples)

let bid blocks =
  And (List.map (fun block -> xor (List.map (fun (p, a) -> (p, Leaf a)) block)) blocks)

(* The structural walkers below use explicit heap work-lists rather than
   recursion: databases routinely exceed the OCaml stack both in width (a
   million-child [And]) and depth (chained conditioning), and these run in
   span attributes on every traced evaluation.  [List.rev_append (List.rev_map
   ...)] is a tail-safe way to push an arbitrarily long child list. *)
let push_children cs rest = List.rev_append (List.rev cs) rest
let push_edges es rest = List.rev_append (List.rev_map snd es) rest

let num_leaves t =
  let n = ref 0 in
  let stack = ref [ t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Leaf _ :: rest ->
        incr n;
        stack := rest
    | And cs :: rest -> stack := push_children cs rest
    | Xor es :: rest -> stack := push_edges es rest
  done;
  !n

let leaves t =
  let acc = ref [] in
  let stack = ref [ t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Leaf a :: rest ->
        acc := a :: !acc;
        stack := rest
    | And cs :: rest -> stack := push_children cs rest
    | Xor es :: rest -> stack := push_edges es rest
  done;
  List.rev !acc

let num_nodes t =
  let n = ref 0 in
  let stack = ref [ t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Leaf _ :: rest ->
        incr n;
        stack := rest
    | And cs :: rest ->
        incr n;
        stack := push_children cs rest
    | Xor es :: rest ->
        incr n;
        stack := push_edges es rest
  done;
  !n

let rec map f = function
  | Leaf a -> Leaf (f a)
  | And cs -> And (List.map (map f) cs)
  | Xor es -> Xor (List.map (fun (p, c) -> (p, map f c)) es)

let indexed t =
  let counter = ref (-1) in
  let rec go = function
    | Leaf a ->
        incr counter;
        Leaf (!counter, a)
    | And cs -> And (List.map go cs)
    | Xor es -> Xor (List.map (fun (p, c) -> (p, go c)) es)
  in
  go t

let index t =
  let it = indexed t in
  let payloads = leaves it |> List.map snd |> Array.of_list in
  (map fst it, payloads)

let rec filter_leaves pred = function
  | Leaf a -> if pred a then Leaf a else And []
  | And cs -> And (List.map (filter_leaves pred) cs)
  | Xor es -> Xor (List.map (fun (p, c) -> (p, filter_leaves pred c)) es)

let rec count_worlds = function
  | Leaf _ -> 1.
  | And cs -> List.fold_left (fun acc c -> acc *. count_worlds c) 1. cs
  | Xor es ->
      let total_p = List.fold_left (fun acc (p, _) -> acc +. p) 0. es in
      let base = List.fold_left (fun acc (_, c) -> acc +. count_worlds c) 0. es in
      if total_p < 1. -. prob_eps then base +. 1. else base

let world_is_possible ~eq t world =
  (* Multiset membership with backtracking over ambiguous And partitions. *)
  let remove_one x l =
    let rec go acc = function
      | [] -> None
      | y :: rest -> if eq x y then Some (List.rev_append acc rest) else go (y :: acc) rest
    in
    go [] l
  in
  let rec subtree_leaves = function
    | Leaf a -> [ a ]
    | And cs -> List.concat_map subtree_leaves cs
    | Xor es -> List.concat_map (fun (_, c) -> subtree_leaves c) es
  in
  let mem_subtree a c = List.exists (eq a) (subtree_leaves c) in
  let rec possible node w =
    match node with
    | Leaf a -> ( match w with [ b ] when eq a b -> true | _ -> false)
    | Xor es ->
        let residual = 1. -. List.fold_left (fun acc (p, _) -> acc +. p) 0. es in
        let via_child = List.exists (fun (p, c) -> p > 0. && possible c w) es in
        via_child || (w = [] && residual > prob_eps)
    | And cs -> partition cs w
  and partition children w =
    match children with
    | [] -> w = []
    | [ c ] -> possible c w
    | c :: rest ->
        (* Elements only matchable inside [c] must go to [c]; elements
           matchable in both [c] and the rest branch. *)
        let rec assign w_c w_rest = function
          | [] -> possible c w_c && partition rest w_rest
          | a :: todo ->
              let in_c = mem_subtree a c in
              let in_rest = List.exists (mem_subtree a) rest in
              if in_c && in_rest then
                assign (a :: w_c) w_rest todo || assign w_c (a :: w_rest) todo
              else if in_c then assign (a :: w_c) w_rest todo
              else if in_rest then assign w_c (a :: w_rest) todo
              else false
        in
        assign [] [] w
  in
  (* Fast failure: every world element must be a leaf of the tree. *)
  let all_leaves = subtree_leaves t in
  let rec covered w remaining =
    match w with
    | [] -> true
    | a :: rest -> (
        match remove_one a remaining with
        | None -> false
        | Some remaining -> covered rest remaining)
  in
  covered world all_leaves && possible t world

let pp pp_leaf ppf t =
  let rec go ppf = function
    | Leaf a -> Format.fprintf ppf "%a" pp_leaf a
    | And cs ->
        Format.fprintf ppf "@[<hov 2>(and@ %a)@]"
          (Format.pp_print_list ~pp_sep:Format.pp_print_space go)
          cs
    | Xor es ->
        let pp_edge ppf (p, c) = Format.fprintf ppf "%g:%a" p go c in
        Format.fprintf ppf "@[<hov 2>(xor@ %a)@]"
          (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_edge)
          es
  in
  go ppf t
