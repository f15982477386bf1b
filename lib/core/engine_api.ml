open Consensus_anxor
module Cache = Consensus_cache.Cache
module Obs = Consensus_obs.Obs

module Readonce_stats = struct
  let read () = Consensus_pdb.Inference.readonce_stats ()
  let reset () = Consensus_pdb.Inference.stats_reset ()
end
module Pool = Consensus_engine.Pool
module Prng = Consensus_util.Prng
module Deadline = Consensus_util.Deadline

exception Unsupported of string

module Error = struct
  type t =
    | Unsupported of string
    | Deadline_exceeded
    | Invalid_input of string

  let to_string = function
    | Unsupported reason -> "unsupported: " ^ reason
    | Deadline_exceeded -> "deadline exceeded"
    | Invalid_input reason -> "invalid input: " ^ reason
end

module Options = struct
  type t = {
    pool : Pool.t option;
    rng : Prng.t option;
    cache : bool;
    deadline : float option;
    label : string option;
  }

  let default =
    {
      pool = None;
      rng = None;
      cache = true;
      deadline = None;
      label = None;
    }

  let make ?pool ?rng ?(cache = true) ?deadline ?label () =
    { pool; rng; cache; deadline; label }
end

type flavor = Mean | Median

type set_metric = Set_sym_diff | Set_jaccard

type topk_metric = Topk_consensus.metric =
  | Sym_diff
  | Intersection
  | Footrule
  | Kendall

type rank_metric = Rank_footrule | Rank_kendall

type query =
  | World of set_metric * flavor
  | Topk of int * topk_metric * flavor
  | Rank of rank_metric
  | Aggregate of float array array * flavor
  | Cluster of { trials : int; samples : int option }

type answer =
  | World_answer of { leaves : int list; expected : (string * float) list }
  | Topk_answer of { keys : int array; expected : (string * float) list }
  | Rank_answer of { keys : int array; expected : (string * float) list }
  | Aggregate_answer of { counts : float array; expected : (string * float) list }
  | Cluster_answer of { labels : int array; expected : (string * float) list }

let flavor_name = function Mean -> "mean" | Median -> "median"

let set_metric_name = function
  | Set_sym_diff -> "symdiff"
  | Set_jaccard -> "jaccard"

let topk_metric_name = function
  | Sym_diff -> "symdiff"
  | Intersection -> "intersection"
  | Footrule -> "footrule"
  | Kendall -> "kendall"

let rank_metric_name = function
  | Rank_footrule -> "footrule"
  | Rank_kendall -> "kendall"

let query_name = function
  | World (m, f) -> Printf.sprintf "world-%s-%s" (set_metric_name m) (flavor_name f)
  | Topk (_, m, f) ->
      Printf.sprintf "topk-%s-%s" (topk_metric_name m) (flavor_name f)
  | Rank m -> Printf.sprintf "rank-%s-mean" (rank_metric_name m)
  | Aggregate (_, f) -> Printf.sprintf "aggregate-%s" (flavor_name f)
  | Cluster _ -> "cluster-mean"

let run_world db metric flavor =
  let leaves =
    match (metric, flavor) with
    | Set_sym_diff, Mean -> Set_consensus.mean_sym_diff db
    | Set_sym_diff, Median -> Set_consensus.median_sym_diff db
    | Set_jaccard, Mean -> Set_consensus.mean_jaccard db
    | Set_jaccard, Median ->
        if Db.is_independent db then Set_consensus.median_jaccard db
        else Set_consensus.median_jaccard_bid db
  in
  World_answer
    {
      leaves;
      expected =
        [
          ("symdiff", Set_consensus.expected_sym_diff db leaves);
          ("jaccard", Set_consensus.expected_jaccard db leaves);
        ];
    }

let run_topk ?pool ~rng db k metric flavor =
  (match (metric, flavor) with
  | (Intersection | Footrule | Kendall), Median ->
      raise
        (Unsupported
           (Printf.sprintf
              "median not supported for the %s metric: the paper's top-k \
               median algorithm covers the symmetric-difference metric only \
               (Theorem 4)"
              (topk_metric_name metric)))
  | _ -> ());
  let ctx = Topk_consensus.make_ctx ?pool db ~k in
  let keys =
    match (metric, flavor) with
    | Sym_diff, Mean -> Topk_consensus.mean_sym_diff ctx
    | Sym_diff, Median -> Topk_consensus.median_sym_diff ctx
    | Intersection, Mean -> Topk_consensus.mean_intersection ctx
    | Footrule, Mean -> Topk_consensus.mean_footrule ctx
    | Kendall, Mean -> Topk_consensus.mean_kendall_pivot rng ctx
    | (Intersection | Footrule | Kendall), Median -> assert false
  in
  Topk_answer
    {
      keys;
      expected =
        [
          ("symdiff", Topk_consensus.expected_sym_diff ctx keys);
          ("intersection", Topk_consensus.expected_intersection ctx keys);
          ("footrule", Topk_consensus.expected_footrule ctx keys);
          ("kendall", Topk_consensus.expected_kendall ctx keys);
        ];
    }

(* Largest database whose Kendall rank answer runs the exact Kemeny DP
   (2ⁿ·n steps) rather than KwikSort + local search: both the served path
   and the oracle's exactness contract read it. *)
let exact_kemeny_max_keys = 16

let run_rank ?pool ~rng db metric =
  let ctx = Rank_consensus.make_ctx ?pool db in
  let keys, d =
    match metric with
    | Rank_footrule -> Rank_consensus.mean_footrule ctx
    | Rank_kendall ->
        if Array.length (Rank_consensus.keys ctx) <= exact_kemeny_max_keys then
          Rank_consensus.mean_kendall_exact ctx
        else Rank_consensus.mean_kendall_pivot rng ctx
  in
  Rank_answer { keys; expected = [ (rank_metric_name metric, d) ] }

let run_aggregate probs flavor =
  let inst = Aggregate_consensus.create probs in
  let counts =
    match flavor with
    | Mean -> Aggregate_consensus.mean inst
    | Median -> snd (Aggregate_consensus.median inst)
  in
  Aggregate_answer
    {
      counts;
      expected = [ ("sq_dist", Aggregate_consensus.expected_sq_dist inst counts) ];
    }

let run_cluster ?pool ~rng db ~trials ~samples =
  let t = Cluster_consensus.make ?pool db in
  let candidates =
    Cluster_consensus.local_search t (Cluster_consensus.best_pivot_of rng ~trials t)
    ::
    (match samples with
    | None -> []
    | Some samples ->
        [
          Cluster_consensus.local_search t
            (Cluster_consensus.best_of_worlds rng ~samples t);
        ])
  in
  let labels, d =
    List.map (fun c -> (c, Cluster_consensus.expected_dist t c)) candidates
    |> List.fold_left
         (fun acc (c, d) ->
           match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (c, d))
         None
    |> Option.get
  in
  Cluster_answer
    {
      labels = Cluster_consensus.normalize labels;
      expected = [ ("disagreements", d) ];
    }

(* ---------- oracle hooks ----------

   [lib/oracle] cross-checks [run] against exhaustive enumeration; the
   helpers below give it a uniform view of a query's answer without
   per-family pattern matching at every call site. *)

let answer_expected = function
  | World_answer { expected; _ }
  | Topk_answer { expected; _ }
  | Rank_answer { expected; _ }
  | Aggregate_answer { expected; _ }
  | Cluster_answer { expected; _ } ->
      expected

let target_metric = function
  | World (m, _) -> set_metric_name m
  | Topk (_, m, _) -> topk_metric_name m
  | Rank m -> rank_metric_name m
  | Aggregate _ -> "sq_dist"
  | Cluster _ -> "disagreements"

let exact db query =
  match query with
  | World (Set_jaccard, Median) ->
      (* [median_jaccard_bid]'s prefix scan is not proven optimal *)
      Db.is_independent db
  | World _ | Aggregate _ -> true
  | Topk (_, (Sym_diff | Intersection | Footrule), _) -> true
  | Topk (_, Kendall, Median) -> true (* raises Unsupported before answering *)
  | Topk (_, Kendall, Mean) -> false (* KwikSort pivot + local search *)
  | Rank Rank_footrule -> true
  | Rank Rank_kendall -> Db.num_keys db <= exact_kemeny_max_keys
  | Cluster _ -> false (* CC-Pivot + local search *)

let run ?pool ?rng ?label db query =
  let rng = match rng with Some g -> g | None -> Prng.create ~seed:42 () in
  (* The per-query root span: explain plans ([Obs.Report]) anchor wall time
     and GC attribution here, so every family funnels through it. *)
  Obs.with_span
    ~attrs:(fun () ->
      let base =
        [
          ("query", Obs.Str (query_name query));
          ("keys", Obs.Int (Db.num_keys db));
        ]
      in
      match label with None -> base | Some l -> ("label", Obs.Str l) :: base)
    "api.run"
  @@ fun () ->
  match query with
  | World (metric, flavor) -> run_world db metric flavor
  | Topk (k, metric, flavor) -> run_topk ?pool ~rng db k metric flavor
  | Rank metric -> run_rank ?pool ~rng db metric
  | Aggregate (probs, flavor) -> run_aggregate probs flavor
  | Cluster { trials; samples } -> run_cluster ?pool ~rng db ~trials ~samples

let run_result ?(options = Options.default) db query =
  let eval () =
    run ?pool:options.Options.pool ?rng:options.Options.rng
      ?label:options.Options.label db query
  in
  (* [deadline = None] inherits the ambient token (the serve scheduler
     installs one per request); installing a fresh infinite token here would
     mask it and defeat daemon-side enforcement. *)
  let with_deadline f =
    match options.Options.deadline with
    | None -> f ()
    | Some budget ->
        let token = Deadline.after budget in
        Deadline.with_current token (fun () ->
            Deadline.check token;
            f ())
  in
  let with_cache f =
    if options.Options.cache then f () else Cache.with_bypass true f
  in
  match with_deadline (fun () -> with_cache eval) with
  | answer -> Ok answer
  | exception Unsupported reason -> Result.Error (Error.Unsupported reason)
  | exception Deadline.Expired -> Result.Error Error.Deadline_exceeded
  | exception Invalid_argument reason ->
      Result.Error (Error.Invalid_input reason)
