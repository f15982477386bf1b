open Consensus_anxor

let top_by_score ~k scored =
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare b a) scored in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (key, _) :: rest -> key :: take (n - 1) rest
  in
  Array.of_list (take k sorted)

let rank_leq_scores db ~k =
  Marginals.rank_table db ~k
  |> List.map (fun (key, dist) -> (key, Array.fold_left ( +. ) 0. dist))

let global_topk db ~k = top_by_score ~k (rank_leq_scores db ~k)

let pt_k db ~threshold ~k =
  rank_leq_scores db ~k
  |> List.filter (fun (_, p) -> p >= threshold)
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.map fst |> Array.of_list

let u_topk ?limit db ~k =
  let worlds = Worlds.enumerate ?limit (Db.tree db) in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p, w) ->
      let answer = Topk_list.of_world ~k w in
      let key = Array.to_list answer in
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0. in
      Hashtbl.replace tbl key (prev +. p))
    worlds;
  let best =
    Hashtbl.fold
      (fun answer p acc ->
        match acc with
        | Some (_, bp) when bp >= p -> acc
        | _ -> Some (answer, p))
      tbl None
  in
  match best with None -> [||] | Some (answer, _) -> Array.of_list answer

type search_state = {
  next : int; (* index into the score-sorted alternatives *)
  chosen : int list; (* keys, most recently chosen first *)
  nchosen : int;
}

(* Exact Pr(top-k answer = τ) for BID/independent databases: a linear DP
   over the score-sorted alternatives tracking how much of τ has been
   realized.  While j < |τ| every alternative of a key outside the realized
   prefix must be absent; alternatives of already-realized keys are absent
   with conditional probability 1; once j = k the remainder is
   unconstrained. *)
let u_topk_answer_probability db ~k tau =
  if not (Db.is_independent db || Db.blocks_single_key db) then
    invalid_arg
      "Functions.u_topk_answer_probability: requires an independent or single-key-block BID database";
  Topk_list.validate ~k tau;
  let n = Db.num_alts db in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> Float.compare (Db.alt db b).Db.value (Db.alt db a).Db.value)
    order;
  let len = Array.length tau in
  let pos_in_tau = Hashtbl.create 8 in
  Array.iteri (fun j key -> Hashtbl.replace pos_in_tau key j) tau;
  let prior = Hashtbl.create 64 in
  let dp = Array.make (len + 1) 0. in
  dp.(0) <- 1.;
  let finished = ref 0. in
  (* mass that has already realized all of τ with |τ| = k: unconstrained *)
  Array.iter
    (fun l ->
      let a = Db.alt db l in
      let p = Db.marginal db l in
      let m = Option.value (Hashtbl.find_opt prior a.Db.key) ~default:0. in
      Hashtbl.replace prior a.Db.key (m +. p);
      let remaining = 1. -. m in
      if len = k then begin
        finished := !finished +. dp.(len);
        dp.(len) <- 0.
      end;
      if remaining > 1e-12 then begin
        let absent = (remaining -. p) /. remaining in
        let present = p /. remaining in
        match Hashtbl.find_opt pos_in_tau a.Db.key with
        | Some j ->
            (* state j: branch on this alternative; states below j: the key
               is needed later, so it is forced absent; states above j: the
               key is already realized, factor 1 *)
            dp.(j + 1) <- dp.(j + 1) +. (dp.(j) *. present);
            dp.(j) <- dp.(j) *. absent;
            for state = 0 to j - 1 do
              dp.(state) <- dp.(state) *. absent
            done
        | None ->
            (* outside τ: forced absent until τ is fully realized *)
            for state = 0 to min (len - 1) (k - 1) do
              dp.(state) <- dp.(state) *. absent
            done;
            if len < k then dp.(len) <- dp.(len) *. absent
      end
      (* remaining <= 0: the block is exhausted, so conditional on the
         earlier alternatives being absent (a probability-0 path) nothing
         meaningful remains; leave the negligible mass untouched *)
      )
    order;
  !finished +. dp.(len)

(* Soliman et al.'s best-first U-Top-k.  For tuple-level databases (one
   alternative per key) a state (scan position, chosen keys) describes a
   unique event and probabilities only shrink along transitions, so the
   first completed state popped from a max-heap is the exact mode.  For
   attribute-level (multi-alternative) keys, several events share a key
   answer and must be aggregated; there we run an exact level-by-level DP
   over the scan positions, merging states with equal chosen-key prefixes
   and accumulating completed answers. *)
let tuple_level db =
  Array.for_all
    (fun key -> match Db.alts_of_key db key with [ _ ] -> true | _ -> false)
    (Db.keys db)

let scan_order db =
  let n = Db.num_alts db in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> Float.compare (Db.alt db b).Db.value (Db.alt db a).Db.value)
    order;
  (* prior_mass.(i): total probability of earlier-scanned alternatives of
     the same key — determines the conditional factors of both branches. *)
  let prior_mass = Array.make n 0. in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun pos l ->
      let key = (Db.alt db l).Db.key in
      let m = Option.value (Hashtbl.find_opt seen key) ~default:0. in
      prior_mass.(pos) <- m;
      Hashtbl.replace seen key (m +. Db.marginal db l))
    order;
  (order, prior_mass)

let u_topk_heap ~max_expansions db ~k =
  let n = Db.num_alts db in
  let order, prior_mass = scan_order db in
  let heap = Consensus_util.Heap.create () in
  Consensus_util.Heap.push heap 1. { next = 0; chosen = []; nchosen = 0 };
  let expansions = ref 0 in
  let rec search () =
    match Consensus_util.Heap.pop_max heap with
    | None -> ([||], 0.) (* empty database *)
    | Some (prob, state) ->
        if state.nchosen = k || state.next = n then
          (Array.of_list (List.rev state.chosen), prob)
        else begin
          incr expansions;
          if !expansions > max_expansions then
            invalid_arg "Functions.u_topk_best_first: expansion limit exceeded";
          let l = order.(state.next) in
          let key = (Db.alt db l).Db.key in
          let p = Db.marginal db l in
          let remaining = 1. -. prior_mass.(state.next) in
          if remaining > 1e-12 then begin
            let p_present = prob *. p /. remaining in
            if p_present > 0. then
              Consensus_util.Heap.push heap p_present
                {
                  next = state.next + 1;
                  chosen = key :: state.chosen;
                  nchosen = state.nchosen + 1;
                };
            let p_absent = prob *. (remaining -. p) /. remaining in
            if p_absent > 0. then
              Consensus_util.Heap.push heap p_absent { state with next = state.next + 1 }
          end;
          search ()
        end
  in
  search ()

let u_topk_level_dp ~max_expansions db ~k =
  let n = Db.num_alts db in
  let order, prior_mass = scan_order db in
  let answers : (int list, float) Hashtbl.t = Hashtbl.create 64 in
  let record chosen prob =
    if prob > 0. then
      Hashtbl.replace answers chosen
        (prob +. Option.value (Hashtbl.find_opt answers chosen) ~default:0.)
  in
  (* level i: chosen-key list (scan order, most recent first) -> prob *)
  let level : (int list, float) Hashtbl.t ref = ref (Hashtbl.create 64) in
  Hashtbl.replace !level [] 1.;
  let states = ref 0 in
  for i = 0 to n - 1 do
    let next : (int list, float) Hashtbl.t = Hashtbl.create 64 in
    let l = order.(i) in
    let key = (Db.alt db l).Db.key in
    let p = Db.marginal db l in
    let remaining = 1. -. prior_mass.(i) in
    let add chosen prob =
      if prob > 0. then begin
        incr states;
        if !states > max_expansions then
          invalid_arg "Functions.u_topk_best_first: state limit exceeded";
        Hashtbl.replace next chosen
          (prob +. Option.value (Hashtbl.find_opt next chosen) ~default:0.)
      end
    in
    Hashtbl.iter
      (fun chosen prob ->
        if List.mem key chosen then add chosen prob
        else if remaining > 1e-12 then begin
          let extended = key :: chosen in
          let p_present = prob *. p /. remaining in
          if List.length extended = k then record extended p_present
          else add extended p_present;
          add chosen (prob *. (remaining -. p) /. remaining)
        end)
      !level;
    level := next
  done;
  Hashtbl.iter (fun chosen prob -> record chosen prob) !level;
  let best =
    Hashtbl.fold
      (fun chosen prob acc ->
        match acc with
        | Some (_, bp) when bp >= prob -> acc
        | _ -> Some (chosen, prob))
      answers None
  in
  match best with
  | None -> ([||], 0.)
  | Some (chosen, prob) -> (Array.of_list (List.rev chosen), prob)

let u_topk_best_first ?(max_expansions = 1_000_000) db ~k =
  (* Per-key exclusion masses require every xor block to hold one key; the
     multi-key x-tuple shape would need block-level tracking. *)
  if not (Db.is_independent db || Db.blocks_single_key db) then
    invalid_arg
      "Functions.u_topk_best_first: requires an independent or single-key-block BID database";
  if tuple_level db then u_topk_heap ~max_expansions db ~k
  else u_topk_level_dp ~max_expansions db ~k

let u_kranks db ~k =
  let table = Marginals.rank_table db ~k in
  let used = Hashtbl.create 16 in
  let winners =
    List.init k (fun i ->
        (* Key maximizing Pr(r(t) = i+1). *)
        let best =
          List.fold_left
            (fun acc (key, dist) ->
              match acc with
              | Some (_, bp) when bp >= dist.(i) -> acc
              | _ -> Some (key, dist.(i)))
            None table
        in
        Option.map fst best)
  in
  (* Replace duplicate winners with the best unused key for that position. *)
  let result =
    List.mapi
      (fun i w ->
        let fresh_best () =
          List.filter (fun (key, _) -> not (Hashtbl.mem used key)) table
          |> List.fold_left
               (fun acc (key, dist) ->
                 match acc with
                 | Some (_, bp) when bp >= dist.(i) -> acc
                 | _ -> Some (key, dist.(i)))
               None
          |> Option.map fst
        in
        let choice =
          match w with
          | Some key when not (Hashtbl.mem used key) -> Some key
          | _ -> fresh_best ()
        in
        Option.iter (fun key -> Hashtbl.replace used key ()) choice;
        choice)
      winners
  in
  List.filter_map Fun.id result |> Array.of_list

let expected_ranks db ~k =
  Db.keys db |> Array.to_list
  |> List.map (fun key -> (key, -.Marginals.expected_rank db key))
  |> top_by_score ~k

let expected_scores db ~k =
  Db.keys db |> Array.to_list
  |> List.map (fun key -> (key, Marginals.expected_value db key))
  |> top_by_score ~k

let upsilon_h_scores db ~k =
  Marginals.rank_table db ~k
  |> List.map (fun (key, dist) ->
         let acc = ref 0. and prefix = ref 0. in
         (* ΥH(t) = Σ_{i<=k} Pr(r <= i)/i with Pr(r <= i) accumulated. *)
         Array.iteri
           (fun idx p ->
             prefix := !prefix +. p;
             acc := !acc +. (!prefix /. float_of_int (idx + 1)))
           dist;
         (key, !acc))

let upsilon_h db ~k = top_by_score ~k (upsilon_h_scores db ~k)

(* Upper bound on Pr(r(t) <= k) = Pr(t present ∧ N_t <= k-1), where N_t is
   the number of higher-valued present tuples:
     <= Pr(t) · min(1, (n̄ - E[N_t]) / (n̄ - (k-1)))       (reverse Markov)
   with n̄ an upper bound on N_t's support (#other keys) and E[N_t] the sum
   of higher-valued leaf marginals of other keys (exact by linearity, no
   independence needed). *)
let rank_leq_upper_bound db ~k =
  let n_alts = Db.num_alts db in
  let n_keys = Db.num_keys db in
  (* leaves sorted by decreasing value with prefix sums of marginals *)
  let order = Array.init n_alts Fun.id in
  Array.sort
    (fun a b -> Float.compare (Db.alt db b).Db.value (Db.alt db a).Db.value)
    order;
  let prefix = Array.make (n_alts + 1) 0. in
  Array.iteri
    (fun i l -> prefix.(i + 1) <- prefix.(i) +. Db.marginal db l)
    order;
  (* value -> mass of strictly-higher-valued leaves, via binary search *)
  let higher_mass value =
    let lo = ref 0 and hi = ref n_alts in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if (Db.alt db order.(mid)).Db.value > value then lo := mid + 1 else hi := mid
    done;
    prefix.(!lo)
  in
  let key_mass key =
    List.fold_left (fun acc l -> acc +. Db.marginal db l) 0. (Db.alts_of_key db key)
  in
  Db.keys db |> Array.to_list
  |> List.map (fun key ->
         let bound =
           List.fold_left
             (fun acc l ->
               let a = Db.alt db l in
               (* exclude this key's own higher alternatives: they are
                  mutually exclusive with l, never counted in N_t *)
               let own_higher =
                 List.fold_left
                   (fun s l' ->
                     if (Db.alt db l').Db.value > a.Db.value then
                       s +. Db.marginal db l'
                     else s)
                   0. (Db.alts_of_key db key)
               in
               let expected_n = Float.max 0. (higher_mass a.Db.value -. own_higher) in
               let support = float_of_int (max 1 (n_keys - 1)) in
               let markov =
                 if float_of_int (k - 1) >= support then 1.
                 else
                   Float.min 1.
                     ((support -. expected_n) /. (support -. float_of_int (k - 1)))
               in
               (* Pr(a ∧ N <= k-1) <= min(Pr a, Pr(N <= k-1)) — no
                  independence assumption *)
               acc +. Float.min (Db.marginal db l) (Float.max 0. markov))
             0. (Db.alts_of_key db key)
         in
         (key, Float.min bound (key_mass key)))

let global_topk_pruned db ~k =
  let bounds =
    rank_leq_upper_bound db ~k
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let evaluated = ref 0 in
  (* running exact scores of visited keys *)
  let exact = ref [] in
  let theta () =
    let sorted = List.sort (fun a b -> Float.compare b a) (List.map snd !exact) in
    match List.nth_opt sorted (k - 1) with Some v -> v | None -> -1.
  in
  let rec visit = function
    | [] -> ()
    | (key, ub) :: rest ->
        if ub <= theta () +. 1e-12 && List.length !exact >= k then ()
        else begin
          incr evaluated;
          let p = Array.fold_left ( +. ) 0. (Marginals.rank_dist db key ~k) in
          exact := (key, p) :: !exact;
          visit rest
        end
  in
  visit bounds;
  (top_by_score ~k !exact, !evaluated)

let prf db ~w ~k =
  let table = Marginals.full_rank_table db in
  Db.keys db
  |> Array.mapi (fun r key ->
         let score = ref 0. in
         Array.iteri (fun m p -> score := !score +. (w (m + 1) *. p)) table.(r);
         (key, !score))
  |> Array.to_list |> top_by_score ~k
