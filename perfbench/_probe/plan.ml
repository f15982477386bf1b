(* The three benchmark workloads, generated from a seed.

   A workload is a set of databases (written to files; the daemon and the
   in-process runs both load them from there), a list of distinct
   operations with relative frequencies, and — for [kernel_mix] — lineage
   inference cases.  An operation is a [POST /query] body in the wire
   syntax plus the rng seed it is sent with, so the served and the bare
   paths parse exactly the same bytes. *)

open Consensus_anxor
module Gen = Consensus_workload.Gen
module Lineage_gen = Consensus_workload.Lineage_gen
module Prng = Consensus_util.Prng

type op = {
  family : string;  (** label for per-family figures *)
  db : string;  (** resident database the query runs against *)
  body : string;  (** wire line; an aggregate line is followed by its matrix *)
  seed : int;  (** rng seed ([?seed=]) *)
}

type t = {
  name : string;
  dbs : (string * Db.t) list;
  ops : op array;
  weights : float array;  (** relative frequency of each op *)
  lineage : Lineage_gen.case array;  (** bare inference cases ([kernel_mix]) *)
  lineage_weight : float;
      (** frequency of inference ops, on the scale of [weights]; each runs
          the next of the [lineage] cases *)
  prefill : int array;
      (** ops that warm the daemon's cache, most popular first; as many are
          sent as the cache holds *)
  warm_ops : int;  (** closed-loop ops sent after the prefill, before timing *)
}

let op ?(seed = 42) family db body = { family; db; body; seed }

let matrix_body flavor m =
  let row r = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") r)) in
  String.concat "\n"
    (Printf.sprintf "aggregate flavor=%s" flavor :: Array.to_list (Array.map row m))

let topk k metric flavor = Printf.sprintf "topk k=%d metric=%s flavor=%s" k metric flavor

(* Fixed-shape generators: the seed draws scores and probabilities, never
   sizes or shapes, so the work an op does varies little from seed to
   seed. *)

(* [keys] keys of exactly [alts] alternatives each; every fifth key is
   certainly present, the others with a random total mass. *)
let bid_db rng ~keys ~alts =
  let scores = Gen.distinct_scores rng (keys * alts) in
  Db.bid
    (List.init keys (fun key ->
         let raw = List.init alts (fun _ -> 0.1 +. Prng.uniform rng) in
         let total = List.fold_left ( +. ) 0. raw in
         let mass = if key mod 5 = 0 then 1.0 else 0.3 +. Prng.float rng 0.65 in
         (key, List.mapi (fun a p -> (p /. total *. mass, scores.((key * alts) + a))) raw)))

(* Two alternative values out of five per key, for clustering (§6.2);
   every other key may be absent. *)
let clustering_db rng ~keys =
  Db.bid
    (List.init keys (fun key ->
         let v1 = Prng.int rng 5 in
         let v2 = (v1 + 1 + Prng.int rng 4) mod 5 in
         let p = 0.1 +. Prng.float rng 0.8 in
         let mass = if key mod 2 = 0 then 1.0 else 0.5 +. Prng.float rng 0.4 in
         (key, [ (p *. mass, float_of_int v1); ((1. -. p) *. mass, float_of_int v2) ])))

(* An and/xor tree of [groups] xor nodes under one and node, six leaves
   each.  Odd groups are tuple-level: three branches of two independent
   tuples.  Even groups also carry attribute-level uncertainty: one key
   takes one of three values.  Not BID, so top-k takes the general
   generating-function path. *)
let keyed_tree rng ~groups =
  let scores = Gen.distinct_scores rng (6 * groups) in
  let next = ref (-1) in
  let leaf key = incr next; Tree.leaf { Db.key; value = scores.(!next) } in
  let split mass n =
    let raw = List.init n (fun _ -> 0.2 +. Prng.uniform rng) in
    let total = List.fold_left ( +. ) 0. raw in
    List.map (fun p -> p /. total *. mass) raw
  in
  let key = ref (-1) in
  let fresh () = incr key; !key in
  let group g =
    let mass = 0.6 +. Prng.float rng 0.4 in
    if g mod 2 = 1 then
      Tree.xor (List.map (fun p -> (p, Tree.and_ [ leaf (fresh ()); leaf (fresh ()) ])) (split mass 3))
    else
      let shared = fresh () in
      Tree.and_
        [
          Tree.xor (List.map (fun p -> (p, leaf shared)) (split mass 3));
          Tree.xor [ (0.5 +. Prng.float rng 0.5, Tree.and_ [ leaf (fresh ()); leaf (fresh ()); leaf (fresh ()) ]) ];
        ]
  in
  Db.create (Tree.and_ (List.init groups group))

(* Small resident databases; every intermediate fits the cache, so after
   one warm-up pass the kernels are cache hits and the front end dominates. *)
let serve_hot rng =
  let bid = bid_db rng ~keys:24 ~alts:2 in
  let ind = bid_db rng ~keys:10 ~alts:1 in
  let tree = keyed_tree rng ~groups:8 in
  let clu = clustering_db rng ~keys:30 in
  let agg = Gen.groupby_matrix rng ~n:16 ~m:4 in
  let ops =
    [|
      op "topk-symdiff-mean" "bid" (topk 6 "symdiff" "mean");
      op "topk-symdiff-median" "bid" (topk 6 "symdiff" "median");
      op "topk-intersection-mean" "bid" (topk 6 "intersection" "mean");
      op "topk-footrule-mean" "bid" (topk 6 "footrule" "mean");
      op "topk-kendall-mean" "bid" (topk 6 "kendall" "mean");
      op "world-jaccard-median" "ind" "world metric=jaccard flavor=median";
      op "topk-symdiff-mean@tree" "tree" (topk 5 "symdiff" "mean");
      op "world-symdiff-mean" "tree" "world metric=symdiff flavor=mean";
      op "world-symdiff-median" "tree" "world metric=symdiff flavor=median";
      op "rank-footrule-mean" "tree" "rank metric=footrule";
      op "cluster-mean" "clu" "cluster trials=8";
      op "aggregate-median" "bid" (matrix_body "median" agg);
    |]
  in
  {
    name = "serve_hot";
    dbs = [ ("bid", bid); ("ind", ind); ("tree", tree); ("clu", clu) ];
    ops;
    weights = Array.make (Array.length ops) 1.;
    lineage = [||];
    lineage_weight = 0.;
    prefill = Array.init (Array.length ops) Fun.id;
    warm_ops = 2000;
  }

let tenants = 600

let tenant i = Printf.sprintf "t%03d" i

(* Many resident databases — [tenants] BID databases of 100 keys, 60k keys
   in all — queried with Zipf-skewed popularity, so the distinct
   intermediates (a Kendall tournament matrix per tenant, rank tables and
   pair joints per k) outgrow the cache: it hits, stores and evicts, and
   the kernels dominate.  [k] is Zipf-skewed over 1..16. *)
let serve_churn rng =
  let dbs = List.init tenants (fun i -> (tenant i, bid_db rng ~keys:100 ~alts:2)) in
  let tree = keyed_tree rng ~groups:24 in
  let clu = clustering_db rng ~keys:120 in
  let bid = bid_db rng ~keys:24 ~alts:2 in
  let zipf i = 1. /. float_of_int (i + 1) in
  let tenant_ops =
    List.concat
      (List.init tenants (fun i ->
           [
             (op "rank-kendall-mean" (tenant i) "rank metric=kendall", 4. *. zipf i);
             (op "topk-symdiff-mean@tenant" (tenant i) (topk 1 "symdiff" "mean"), zipf i);
           ]))
  in
  let k_ops =
    List.concat
      (List.init 16 (fun i ->
           let k = i + 1 in
           [
             (op "topk-symdiff-mean" "bid" (topk k "symdiff" "mean"), 0.3 *. zipf i);
             (op "topk-intersection-mean" "bid" (topk k "intersection" "mean"), 0.2 *. zipf i);
             (op "topk-symdiff-median" "bid" (topk k "symdiff" "median"), 0.2 *. zipf i);
           ]))
  in
  let other_ops =
    [
      (op "rank-footrule-mean" "tree" "rank metric=footrule", 0.1);
      (op "topk-symdiff-mean@tree" "tree" (topk 5 "symdiff" "mean"), 0.1);
      (op "cluster-mean" "clu" "cluster trials=8", 0.1);
    ]
    @ List.init 4 (fun i ->
          ( op ~seed:(42 + i) "aggregate-median" "bid"
              (matrix_body "median" (Gen.groupby_matrix rng ~n:300 ~m:16)),
            0.05 ))
  in
  let all = tenant_ops @ k_ops @ other_ops in
  {
    name = "serve_churn";
    dbs = dbs @ [ ("bid", bid); ("tree", tree); ("clu", clu) ];
    ops = Array.of_list (List.map fst all);
    weights = Array.of_list (List.map snd all);
    lineage = [||];
    lineage_weight = 0.;
    (* The tenants' Kendall ops, in popularity order. *)
    prefill = Array.init tenants (fun i -> 2 * i);
    warm_ops = 400;
  }

(* Bare kernels: one op family per kernel, run in process without the
   daemon, sized so that a run holds over a thousand ops.  Weights are
   percent of ops, inference taking [lineage_weight].  The median falls in
   the middle of BID sweeps over [graded] databases (35-65% of ops, with the
   13-key Kemeny ops), whose costs step by less than the machine's speed
   swings between runs: the median then moves smoothly with the share of a
   run spent slow, where inside a family of ops of one size it would jump
   between a fast and a slow value. *)
let graded = List.init 15 (fun i -> 200 + (20 * i))

let kernel_mix rng =
  let sweeps = List.map (fun n -> (Printf.sprintf "sweep%d" n, bid_db rng ~keys:n ~alts:2)) graded in
  let big = bid_db rng ~keys:2000 ~alts:2 in
  let small = bid_db rng ~keys:40 ~alts:2 in
  let tree = keyed_tree rng ~groups:16 in
  let rank = bid_db rng ~keys:150 ~alts:1 in
  let kemeny = bid_db rng ~keys:13 ~alts:1 in
  let kemeny16 = bid_db rng ~keys:16 ~alts:1 in
  let clu = clustering_db rng ~keys:150 in
  let agg = Gen.groupby_matrix rng ~n:600 ~m:16 in
  let ops =
    [
      (op "kemeny" "kemeny" "rank metric=kendall", 3.);
      (op "bid_sweep" "small" (topk 2 "footrule" "mean"), 3.);
      (op "median_dp" "small" (topk 2 "symdiff" "median"), 3.);
      (op "genfunc_tree" "tree" (topk 5 "symdiff" "mean"), 5.);
      (op "hungarian" "rank" "rank metric=footrule", 5.);
      (op "cluster" "clu" "cluster trials=8", 3.);
      (op "bid_sweep" "big" (topk 1 "symdiff" "mean"), 9.);
      (op "min_cost_flow" "small" (matrix_body "median" agg), 3.);
      (op "kemeny" "kemeny16" "rank metric=kendall", 1.);
    ]
    @ List.map (fun (name, _) -> (op "bid_sweep" name (topk 1 "symdiff" "mean"), 2.)) sweeps
  in
  let shapes = Array.of_list Lineage_gen.shape_names in
  let lineage =
    Array.init (16 * Array.length shapes) (fun i ->
        Lineage_gen.gen_shape shapes.(i mod Array.length shapes) rng)
  in
  {
    name = "kernel_mix";
    dbs =
      [
        ("big", big); ("small", small); ("tree", tree); ("rank", rank); ("kemeny", kemeny);
        ("kemeny16", kemeny16); ("clu", clu);
      ]
      @ sweeps;
    ops = Array.of_list (List.map fst ops);
    weights = Array.of_list (List.map snd ops);
    lineage;
    lineage_weight = 35.;
    prefill = [||];
    warm_ops = 0;
  }

let make name ~seed =
  let rng = Prng.create ~seed () in
  match name with
  | "serve_hot" -> serve_hot rng
  | "serve_churn" -> serve_churn rng
  | "kernel_mix" -> kernel_mix rng
  | _ -> invalid_arg ("unknown workload " ^ name)

let db_file dir name = Filename.concat dir (name ^ ".db")

(* BID databases go out in the line format, one key and its alternatives
   per line, which loads back as a BID database (the tree syntax would load
   as a general tree); other shapes go out in the tree syntax. *)
let write_db oc db =
  if Db.is_bid db then
    Array.iter
      (fun key ->
        Printf.fprintf oc "%d" key;
        List.iter
          (fun l -> Printf.fprintf oc " %.17g:%.17g" (Db.marginal db l) (Db.alt db l).value)
          (Db.alts_of_key db key);
        output_char oc '\n')
      (Db.keys db)
  else begin
    output_string oc (Sexp_io.db_to_string db);
    output_char oc '\n'
  end

let write_dbs t dir =
  List.iter
    (fun (name, db) ->
      let oc = open_out (db_file dir name) in
      write_db oc db;
      close_out oc)
    t.dbs
