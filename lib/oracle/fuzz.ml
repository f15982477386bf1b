module Api = Consensus.Api
module Pool = Consensus_engine.Pool
module Prng = Consensus_util.Prng
module Gen = Consensus_workload.Gen
module Db = Consensus_anxor.Db

(* ---------- families ---------- *)

type family = World | Topk | Rank | Aggregate | Cluster

let all_families = [ World; Topk; Rank; Aggregate; Cluster ]

let family_name = function
  | World -> "world"
  | Topk -> "topk"
  | Rank -> "rank"
  | Aggregate -> "aggregate"
  | Cluster -> "cluster"

(* ---------- case generation ---------- *)

(* Per-family size clamps: each family's oracle cost grows at a different
   rate (2^n world candidates, arrangements for top-k, n! permutations,
   Bell numbers for clusterings), so [max_leaves] is capped where needed to
   keep [Exact.solve] affordable on most generated cases. *)
let gen_case rng family ~max_leaves =
  if max_leaves <= 0 then invalid_arg "Fuzz.gen_case: max_leaves must be positive";
  match family with
  | World ->
      let db = Gen.small_db rng ~max_leaves:(min max_leaves 10) in
      let flavor = if Prng.bool rng then Api.Mean else Api.Median in
      let metric = if Prng.bool rng then Api.Set_sym_diff else Api.Set_jaccard in
      let q = Api.World (metric, flavor) in
      let q =
        if Metamorph.compatible db q then q else Api.World (Api.Set_sym_diff, flavor)
      in
      { Corpus.query = q; db }
  | Topk ->
      let db = Gen.small_db rng ~max_leaves:(min max_leaves 8) in
      let k = 1 + Prng.int rng 3 in
      let metric =
        Prng.choose rng [| Api.Sym_diff; Api.Intersection; Api.Footrule; Api.Kendall |]
      in
      let flavor =
        if metric = Api.Sym_diff && Prng.bool rng then Api.Median else Api.Mean
      in
      { Corpus.query = Api.Topk (k, metric, flavor); db }
  | Rank ->
      let db = Gen.small_db rng ~max_leaves:(min max_leaves 8) in
      let metric = if Prng.bool rng then Api.Rank_footrule else Api.Rank_kendall in
      { Corpus.query = Api.Rank metric; db }
  | Aggregate ->
      let probs = Gen.small_matrix rng ~max_tuples:6 ~max_groups:4 in
      let flavor = if Prng.bool rng then Api.Mean else Api.Median in
      { Corpus.query = Api.Aggregate (probs, flavor); db = Corpus.placeholder_db }
  | Cluster ->
      let max_keys = max 1 (min 7 max_leaves) in
      let db =
        Gen.small_clustering_db rng ~max_keys
          ~max_leaves:(max max_keys (min max_leaves 14))
      in
      let trials = 1 + Prng.int rng 4 in
      let samples = if Prng.bool rng then Some (1 + Prng.int rng 8) else None in
      { Corpus.query = Api.Cluster { trials; samples }; db }

(* ---------- checking ---------- *)

(* Closed forms and the oracle's enumeration sum the same terms in different
   orders; exact answers on rewritten trees likewise.  Equality up to a
   relative 1e-6 keeps genuine off-by-ones visible (they shift whole units
   of distance) while absorbing float-association noise. *)
let approx_eq a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* The two heuristic paths (top-k Kendall mean, clustering) carry
   constant-factor guarantees, not optimality (§5.5, §6.2); the fuzz bound
   mirrors the documented factor 2. *)
let heuristic_ratio = 2.

let run_api ~cache ~pool (case : Corpus.case) =
  Api.Cache.set_enabled cache;
  if cache then Api.Cache.clear ();
  Fun.protect
    ~finally:(fun () -> Api.Cache.set_enabled false)
    (fun () -> Api.run ~pool ~rng:(Prng.create ~seed:42 ()) case.db case.query)

let target_value query answer =
  List.assoc (Api.target_metric query) (Api.answer_expected answer)

let check_case ~pool ~pool1 (case : Corpus.case) =
  let q = case.Corpus.query and db = case.Corpus.db in
  Campaign.checking @@ fun ensure ->
  (* 1. config grid: cache off/on x jobs N/1 must agree exactly. *)
  let a = run_api ~cache:false ~pool case in
  let a_cache = run_api ~cache:true ~pool case in
  ensure "config-grid"
    (fun () -> "answers differ between cache off and cache on")
    (a_cache = a);
  let a_jobs1 = run_api ~cache:false ~pool:pool1 case in
  ensure "config-grid"
    (fun () -> "answers differ between jobs=N and jobs=1")
    (a_jobs1 = a);
  (* 2. evaluators: closed forms vs possible-world enumeration, on the
     worlds layer 3 checks too (aggregates ignore them). *)
  let t = Exact.prepare db in
  let reported = Api.answer_expected a in
  let enum = Exact.expected_all t q (Exact.of_api a) in
  List.iter2
    (fun (name, v) (name', v') ->
      assert (name = name');
      ensure "evaluator"
        (fun () ->
          Printf.sprintf "%s: closed form %.12g vs enumeration %.12g" name v v')
        (approx_eq v v'))
    reported enum;
  let target = target_value q a in
  (* 3. oracle: expected value and optimality. *)
  let opt =
    match q with
    | Api.Aggregate (probs, flavor) ->
        if not (Exact.aggregate_solvable probs) then None
        else begin
          let counts =
            match Exact.of_api a with
            | Exact.Counts c -> c
            | _ -> assert false
          in
          let oracle_v = Exact.expected_aggregate probs counts in
          ensure "oracle-expected"
            (fun () ->
              Printf.sprintf "reported %.12g vs oracle %.12g" target oracle_v)
            (approx_eq target oracle_v);
          let _, opt = Exact.solve_aggregate probs flavor in
          ensure "oracle-optimal"
            (fun () ->
              Printf.sprintf "reported %.12g vs brute-force optimum %.12g"
                target opt)
            (approx_eq target opt);
          Some opt
        end
    | _ ->
        ensure "oracle-worlds"
          (fun () ->
            Printf.sprintf "world probabilities sum to %.12g"
              (Exact.total_probability t))
          (approx_eq (Exact.total_probability t) 1.);
        for i = 0 to Db.num_alts db - 1 do
          ensure "oracle-marginal"
            (fun () ->
              Printf.sprintf "leaf %d: marginal %.17g vs world sum %.17g" i
                (Db.marginal db i) (Exact.marginal t i))
            (approx_eq (Db.marginal db i) (Exact.marginal t i))
        done;
        let oracle_v = Exact.expected t q (Exact.of_api a) in
        ensure "oracle-expected"
          (fun () ->
            Printf.sprintf "reported %.12g vs oracle %.12g" target oracle_v)
          (approx_eq target oracle_v);
        if not (Exact.solvable t q) then None
        else begin
          let _, opt = Exact.solve t q in
          if Api.exact db q then
            ensure "oracle-optimal"
              (fun () ->
                Printf.sprintf "reported %.12g vs brute-force optimum %.12g"
                  target opt)
              (approx_eq target opt)
          else begin
            ensure "oracle-lower-bound"
              (fun () ->
                Printf.sprintf "reported %.12g below brute-force optimum %.12g"
                  target opt)
              (target >= opt -. 1e-6);
            ensure "heuristic-ratio"
              (fun () ->
                Printf.sprintf "reported %.12g exceeds %g x optimum %.12g"
                  target heuristic_ratio opt)
              (target <= (heuristic_ratio *. opt) +. 1e-6)
          end;
          Some opt
        end
  in
  (* 4. metamorphic rewrites: the optimal target value is invariant.
     Rewrites (and shrinking) go through the pointer tree, so first
     check that rebuilding the arena from it reproduces the database. *)
  (match q with
  | Api.Aggregate _ -> () (* matrix input; [db] is a placeholder *)
  | _ ->
      ensure "round-trip-digest"
        (fun () -> "rebuilding the arena from the tree changes the digest")
        (Db.digest (Db.create ~check:false (Db.tree db)) = Db.digest db));
  if Metamorph.supported q then begin
    let seed = Hashtbl.hash (Corpus.to_string case) land 0xFFFFFF in
    List.iteri
      (fun i rewrite ->
        let rng = Prng.create ~seed:(seed + i) () in
        match Metamorph.apply rewrite rng db q with
        | None -> ()
        | Some db' ->
            if Api.exact db q && Api.exact db' q then begin
              let a' = run_api ~cache:false ~pool { case with Corpus.db = db' } in
              let target' = target_value q a' in
              ensure
                ("metamorphic:" ^ Metamorph.name rewrite)
                (fun () ->
                  Printf.sprintf "optimum %.12g became %.12g" target target')
                (approx_eq target target')
            end
            else
              Option.iter
                (fun opt ->
                  let t' = Exact.prepare db' in
                  if Exact.solvable t' q then begin
                    let _, opt' = Exact.solve t' q in
                    ensure
                      ("metamorphic:" ^ Metamorph.name rewrite)
                      (fun () ->
                        Printf.sprintf "oracle optimum %.12g became %.12g" opt
                          opt')
                      (approx_eq opt opt')
                  end)
                opt)
      Metamorph.all
  end

(* ---------- campaigns ---------- *)

let describe (case : Corpus.case) =
  match case.query with
  | Api.Aggregate (probs, _) ->
      Printf.sprintf "%s, %dx%d matrix" (Api.query_name case.query)
        (Array.length probs)
        (Array.length probs.(0))
  | _ -> Printf.sprintf "%s, %d leaves" (Api.query_name case.query) (Db.num_alts case.db)

let family ~pool ~pool1 =
  { Campaign.codec = Corpus.codec; check = check_case ~pool ~pool1; candidates = Shrink.candidates }

type config = {
  seed : int;
  iters : int;
  max_leaves : int;
  families : family list;
  corpus_dir : string option;
}

let default_config =
  { seed = 0; iters = 100; max_leaves = 12; families = all_families; corpus_dir = None }

let with_pool pool ~jobs f =
  match pool with Some p -> f p | None -> Pool.with_pool ~jobs f

let run ?pool ?pool1 config =
  with_pool pool ~jobs:0 @@ fun pool ->
  with_pool pool1 ~jobs:1 @@ fun pool1 ->
  let family = family ~pool ~pool1 in
  let rng = Prng.create ~seed:config.seed () in
  List.map
    (fun fam ->
      let frng = Prng.split rng in
      fun () ->
        let case = gen_case frng fam ~max_leaves:config.max_leaves in
        (case, family.check case))
    config.families
  |> Campaign.run ?corpus_dir:config.corpus_dir family ~iters:config.iters
