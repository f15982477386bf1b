type t = int array

let of_world ~k alts =
  let sorted =
    List.sort
      (fun (a : Consensus_anxor.Db.alt) b -> Float.compare b.value a.value)
      alts
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (a : Consensus_anxor.Db.alt) :: rest -> a.key :: take (n - 1) rest
  in
  Array.of_list (take k sorted)

let position l key =
  let n = Array.length l in
  let rec go i = if i >= n then None else if l.(i) = key then Some (i + 1) else go (i + 1) in
  go 0

let mem l key = position l key <> None

let validate ~k l =
  if Array.length l > k then invalid_arg "Topk_list.validate: longer than k";
  let module S = Set.Make (Int) in
  let s = Array.fold_left (fun acc key -> S.add key acc) S.empty l in
  if S.cardinal s <> Array.length l then
    invalid_arg "Topk_list.validate: duplicate keys"

let overlap l1 l2 =
  Array.fold_left (fun acc key -> if mem l2 key then acc + 1 else acc) 0 l1

let sym_diff_raw l1 l2 =
  Array.length l1 + Array.length l2 - (2 * overlap l1 l2)

let sym_diff ~k l1 l2 = float_of_int (sym_diff_raw l1 l2) /. float_of_int (2 * k)

let prefix l i = Array.sub l 0 (min i (Array.length l))

let intersection ~k l1 l2 =
  let acc = ref 0. in
  for i = 1 to k do
    acc :=
      !acc
      +. (float_of_int (sym_diff_raw (prefix l1 i) (prefix l2 i))
         /. float_of_int (2 * i))
  done;
  !acc /. float_of_int k

let footrule ~k l1 l2 =
  (* F^(k+1): the usual footrule after placing missing elements at k+1. *)
  let pos l key = match position l key with Some p -> p | None -> k + 1 in
  let module S = Set.Make (Int) in
  let union =
    S.union
      (Array.fold_left (fun acc x -> S.add x acc) S.empty l1)
      (Array.fold_left (fun acc x -> S.add x acc) S.empty l2)
  in
  S.fold
    (fun key acc -> acc +. float_of_int (abs (pos l1 key - pos l2 key)))
    union 0.

let kendall ~k l1 l2 =
  ignore k;
  (* K_min: pairs forced to disagree in all full-ranking extensions. *)
  let module S = Set.Make (Int) in
  let s1 = Array.fold_left (fun acc x -> S.add x acc) S.empty l1 in
  let s2 = Array.fold_left (fun acc x -> S.add x acc) S.empty l2 in
  let union = S.union s1 s2 |> S.elements |> Array.of_list in
  let n = Array.length union in
  let count = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let i = union.(a) and j = union.(b) in
      let p1i = position l1 i and p1j = position l1 j in
      let p2i = position l2 i and p2j = position l2 j in
      let disagree =
        match (p1i, p1j, p2i, p2j) with
        | Some a1, Some b1, Some a2, Some b2 ->
            (* both pairs ranked in both lists *)
            (a1 < b1 && a2 > b2) || (a1 > b1 && a2 < b2)
        | Some _, Some _, Some _, None ->
            (* j missing from l2: j after i there; forced iff l1 has j first *)
            p1j < p1i
        | Some _, Some _, None, Some _ -> p1i < p1j
        | Some _, None, Some _, Some _ -> p2j < p2i
        | None, Some _, Some _, Some _ -> p2i < p2j
        | Some _, None, None, Some _ -> true
        | None, Some _, Some _, None -> true
        | _ -> false
      in
      if disagree then incr count
    done
  done;
  float_of_int !count

let pp ppf l =
  Format.fprintf ppf "[%s]"
    (Array.to_list l |> List.map string_of_int |> String.concat "; ")
