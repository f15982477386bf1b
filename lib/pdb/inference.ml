open Lineage
module Obs = Consensus_obs.Obs
module Cache = Consensus_cache.Cache

let expansions = ref 0
let readonce_hits = ref 0
let readonce_misses = ref 0

let stats_reset () =
  expansions := 0;
  readonce_hits := 0;
  readonce_misses := 0

let stats_expansions () = !expansions
let readonce_stats () = (!readonce_hits, !readonce_misses)

let shannon_expansions =
  Obs.Counter.make ~help:"Shannon expansions performed by exact lineage inference"
    "pdb_inference_expansions_total"

let readonce_hit_total =
  Obs.Counter.make
    ~help:"Lineage probabilities served entirely by the read-once fast path"
    "inference_readonce_hit_total"

let readonce_miss_total =
  Obs.Counter.make
    ~help:"Lineage probabilities where read-once detection failed at the root"
    "inference_readonce_miss_total"

let probability_seconds =
  Obs.Histogram.make ~help:"Wall time of one exact lineage-probability computation"
    "pdb_inference_probability_seconds"

(* Dependency class of a variable: variables in the same BID block are
   mutually dependent; independent variables are alone in their class. *)
let dep_class reg v =
  match Registry.block_of reg v with Some b -> b | None -> -v - 1

module IS = Set.Make (Int)

let rec dep_set reg f =
  match f with
  | True | False -> IS.empty
  | Var v -> IS.singleton (dep_class reg v)
  | Not g -> dep_set reg g
  | And fs | Or fs ->
      List.fold_left (fun acc g -> IS.union acc (dep_set reg g)) IS.empty fs

(* Group formulas into connected components by shared dependency classes. *)
let components reg fs =
  let annotated = List.map (fun f -> (dep_set reg f, [ f ])) fs in
  let rec merge groups =
    let rec absorb (s, gs) acc = function
      | [] -> ((s, gs), List.rev acc)
      | (s', gs') :: rest ->
          if IS.is_empty (IS.inter s s') then absorb (s, gs) ((s', gs') :: acc) rest
          else absorb (IS.union s s', gs' @ gs) acc rest
    in
    match groups with
    | [] -> []
    | g :: rest ->
        let merged, remaining = absorb g [] rest in
        if List.length (snd merged) > List.length (snd g) then
          merge (merged :: remaining)
        else merged :: merge remaining
  in
  merge annotated |> List.map snd

let var_counts f =
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | True | False -> ()
    | Var v ->
        Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0)
    | Not g -> go g
    | And fs | Or fs -> List.iter go fs
  in
  go f;
  tbl

let most_frequent_var f =
  let tbl = var_counts f in
  Hashtbl.fold
    (fun v c acc ->
      match acc with Some (_, bc) when bc >= c -> acc | _ -> Some (v, c))
    tbl None
  |> Option.map fst

(* Content hash of an inference instance: the formula plus the fragment of
   the registry it can observe — each variable's probability, its block id,
   and every block-mate's probability (the block's absent mass steers the
   Shannon expansion even for mates outside the formula). *)
let instance_digest reg f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Marshal.to_string f []);
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Buffer.add_string buf (Printf.sprintf "v%d=%h;" v (Registry.prob reg v));
      match Registry.block_of reg v with
      | None -> ()
      | Some b -> if not (Hashtbl.mem blocks b) then Hashtbl.replace blocks b ())
    (vars f);
  Hashtbl.fold (fun b () acc -> b :: acc) blocks []
  |> List.sort compare
  |> List.iter (fun b ->
         Buffer.add_string buf (Printf.sprintf "b%d:" b);
         List.iter
           (fun w ->
             Buffer.add_string buf
               (Printf.sprintf "%d=%h;" w (Registry.prob reg w)))
           (Registry.block_members reg b));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let probability ?(decompose = true) ?(readonce = true) reg f =
  let before = !expansions in
  let served_readonce = ref false in
  Obs.Histogram.time probability_seconds @@ fun () ->
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("decompose", Obs.Bool decompose);
        ("readonce", Obs.Bool !served_readonce);
        ("expansions", Obs.Int (!expansions - before));
      ])
    "pdb.inference.probability"
  @@ fun () ->
  let compute () =
  let memo : (Lineage.t, float) Hashtbl.t = Hashtbl.create 256 in
  let rec prob f =
    match f with
    | True -> 1.
    | False -> 0.
    | Var v -> Registry.prob reg v
    | Not g -> 1. -. prob g
    | And [] -> 1.
    | Or [] -> 0.
    | And [ g ] | Or [ g ] -> prob g
    | And fs | Or fs -> (
        match Hashtbl.find_opt memo f with
        | Some p -> p
        | None ->
            let p = prob_connective f fs in
            Hashtbl.replace memo f p;
            p)
  and prob_connective f fs =
    let comps = if decompose then components reg fs else [ fs ] in
    let is_and = match f with And _ -> true | _ -> false in
    if List.length comps > 1 then
      if is_and then
        List.fold_left
          (fun acc comp -> acc *. prob (simplify (And comp)))
          1. comps
      else
        1.
        -. List.fold_left
             (fun acc comp -> acc *. (1. -. prob (simplify (Or comp))))
             1. comps
    else
      (* A node neither decomposable nor constant: before paying for a
         Shannon expansion, try the read-once factorization with a tight
         clause cap.  Formulas that become read-once after a few
         substitutions collapse here instead of expanding to the bottom. *)
      match
        if readonce then Readonce.probability ~max_clauses:512 reg f else None
      with
      | Some p ->
          served_readonce := true;
          p
      | None -> shannon f
  and shannon f =
    incr expansions;
    Obs.Counter.incr shannon_expansions;
    match most_frequent_var f with
    | None -> prob (simplify f)
    | Some v -> (
        match Registry.block_of reg v with
        | None ->
            let p = Registry.prob reg v in
            (p *. prob (substitute f v true))
            +. ((1. -. p) *. prob (substitute f v false))
        | Some b ->
            let members = Registry.block_members reg b in
            let absent =
              1. -. List.fold_left (fun acc w -> acc +. Registry.prob reg w) 0. members
            in
            let condition chosen =
              List.fold_left
                (fun g w -> substitute g w (Some w = chosen))
                f members
            in
            let acc =
              List.fold_left
                (fun acc w ->
                  acc +. (Registry.prob reg w *. prob (condition (Some w))))
                0. members
            in
            if absent > 1e-12 then acc +. (absent *. prob (condition None))
            else acc)
  in
  if readonce then
    match Readonce.probability reg f with
    | Some p ->
        served_readonce := true;
        incr readonce_hits;
        Obs.Counter.incr readonce_hit_total;
        p
    | None ->
        incr readonce_misses;
        Obs.Counter.incr readonce_miss_total;
        prob (simplify f)
  else prob (simplify f)
  in
  Cache.memo Cache.Prob ~family:"lineage_prob"
    ~digest:(fun () -> instance_digest reg f)
    ~params:[ string_of_bool decompose; string_of_bool readonce ]
    compute

let probability_mc rng reg ~samples f =
  if samples <= 0 then invalid_arg "Inference.probability_mc: samples must be positive";
  Obs.with_span
    ~attrs:(fun () -> [ ("samples", Obs.Int samples) ])
    "pdb.inference.probability_mc"
  @@ fun () ->
  let n = Registry.num_vars reg in
  let assign = Array.make n false in
  (* Gather blocks and independent vars once. *)
  let blocks = Hashtbl.create 16 in
  let indep = ref [] in
  for v = 0 to n - 1 do
    match Registry.block_of reg v with
    | Some b -> if not (Hashtbl.mem blocks b) then Hashtbl.replace blocks b ()
    | None -> indep := v :: !indep
  done;
  let hits = ref 0 in
  for _ = 1 to samples do
    Array.fill assign 0 n false;
    List.iter
      (fun v ->
        assign.(v) <- Consensus_util.Prng.bernoulli rng (Registry.prob reg v))
      !indep;
    Hashtbl.iter
      (fun b () ->
        let members = Registry.block_members reg b in
        let u = Consensus_util.Prng.uniform rng in
        let rec pick acc = function
          | [] -> ()
          | w :: rest ->
              let acc' = acc +. Registry.prob reg w in
              if u < acc' then assign.(w) <- true else pick acc' rest
        in
        pick 0. members)
      blocks;
    if eval f (fun v -> assign.(v)) then incr hits
  done;
  float_of_int !hits /. float_of_int samples
