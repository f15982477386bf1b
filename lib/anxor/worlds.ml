let default_limit = 200_000

(* Every possible world, one per choice path, as a lazily-produced
   sequence.  Nothing is materialized, so the brute-force oracle can walk
   instances whose world count exceeds [enumerate]'s list [limit] without
   holding every world at once.  Accumulators are reversed leaf lists. *)
let to_seq t =
  let rec go (t : _ Tree.t) : (float * 'a list) Seq.t =
    match t with
    | Tree.Leaf a -> Seq.return (1., [ a ])
    | Tree.Xor es ->
        let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. es in
        let residual = 1. -. total in
        let base =
          List.to_seq es
          |> Seq.concat_map (fun (p, c) ->
                 Seq.map (fun (q, w) -> (p *. q, w)) (go c))
        in
        if residual > 1e-12 then Seq.cons (residual, []) base else base
    | Tree.And cs ->
        List.fold_left
          (fun acc c ->
            Seq.concat_map
              (fun (p, w) ->
                Seq.map (fun (q, w') -> (p *. q, List.rev_append w' w)) (go c))
              acc)
          (Seq.return (1., []))
          cs
  in
  Seq.map (fun (p, w) -> (p, List.rev w)) (go t)

(* The list form of [to_seq], refusing to hold more than [limit] worlds. *)
let enumerate ?(limit = default_limit) t =
  let rec take n seq acc =
    match seq () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons (world, rest) ->
        if n >= limit then
          invalid_arg
            (Printf.sprintf "Worlds.enumerate: more than %d worlds" limit);
        take (n + 1) rest (world :: acc)
  in
  take 0 (to_seq t) []

let enumerate_merged ?limit t =
  let it = Tree.indexed t in
  let worlds = enumerate ?limit it in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p, w) ->
      let sorted = List.sort (fun (i, _) (j, _) -> compare i j) w in
      let ids = List.map fst sorted in
      let payloads = List.map snd sorted in
      match Hashtbl.find_opt tbl ids with
      | Some (prob, _) -> Hashtbl.replace tbl ids (prob +. p, payloads)
      | None -> Hashtbl.add tbl ids (p, payloads))
    worlds;
  Hashtbl.fold (fun ids (p, payloads) acc -> ((ids, payloads), p) :: acc) tbl []
  |> List.sort (fun ((ids1, _), _) ((ids2, _), _) -> compare ids1 ids2)

let world_probability ?limit t ids =
  let target = List.sort_uniq compare ids in
  enumerate_merged ?limit t
  |> List.fold_left
       (fun acc ((w, _), p) -> if w = target then acc +. p else acc)
       0.

let fold t ~init ~f =
  Seq.fold_left (fun acc (p, w) -> f acc p w) init (to_seq t)

(* Iterative with an explicit work-list of arena node ids: sampling runs on
   production-sized databases where a recursive walk would overflow the
   OCaml stack.  One uniform draw per visited xor node, in depth-first
   order: seeded answers depend on exactly this sequence of draws. *)
let sample rng (a : Arena.t) =
  let acc = ref [] in
  let stack = ref [ a.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
        let kind = Arena.kind a n in
        let st = a.child_start.(n) in
        let stop = st + a.child_count.(n) in
        if kind = Arena.kind_leaf then begin
          acc := a.leaf_ix.(n) :: !acc;
          stack := rest
        end
        else if kind = Arena.kind_and then begin
          let s = ref rest in
          for i = stop - 1 downto st do
            s := a.children.(i) :: !s
          done;
          stack := !s
        end
        else begin
          let u = Consensus_util.Prng.uniform rng in
          let rec pick i acc_p =
            if i = stop then rest (* residual: empty *)
            else
              let c = a.children.(i) in
              let p = a.eprob.(c) in
              if u < acc_p +. p then c :: rest else pick (i + 1) (acc_p +. p)
          in
          stack := pick st 0.
        end
  done;
  List.rev !acc

let sample_many rng n a = List.init n (fun _ -> sample rng a)

let expectation ?limit t ~f =
  enumerate ?limit t
  |> List.fold_left (fun acc (p, w) -> acc +. (p *. f w)) 0.

let monte_carlo rng ~samples a ~f =
  if samples <= 0 then invalid_arg "Worlds.monte_carlo: samples must be positive";
  let acc = ref 0. in
  for _ = 1 to samples do
    acc := !acc +. f (sample rng a)
  done;
  !acc /. float_of_int samples
