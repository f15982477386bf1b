(* E13 — extension (§7 future work): consensus *complete* rankings.  The
   mean under Spearman's footrule is an n×n assignment; the mean under
   Kendall's tau is weighted Kemeny aggregation on the pairwise
   disagreement tournament. *)

open Consensus_util
open Consensus
open Consensus_ranking
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let correctness () =
  let g = Prng.create ~seed:1301 () in
  let trials = if !Harness.quick then 6 else 20 in
  let fr_ok = ref 0 and kem_ok = ref 0 in
  let worst_pivot = ref 1. and sum_pivot = ref 0. in
  let worst_fr = ref 1. and sum_fr = ref 0. in
  for _ = 1 to trials do
    let db = Gen.random_tree_db g (3 + Prng.int g 3) in
    let ctx = Rank_consensus.make_ctx db in
    let _, d_fr = Rank_consensus.mean_footrule ctx in
    let t = Exact.prepare db in
    let _, best_fr = Exact.solve t (Api.Rank Api.Rank_footrule) in
    if Fcmp.approx ~eps:1e-9 best_fr d_fr then incr fr_ok;
    let _, d_kem = Rank_consensus.mean_kendall_exact ctx in
    let _, best_kem = Exact.solve t (Api.Rank Api.Rank_kendall) in
    if Fcmp.approx ~eps:1e-9 best_kem d_kem then incr kem_ok;
    let ratio d = if best_kem > 1e-12 then d /. best_kem else 1. in
    let _, d_piv = Rank_consensus.mean_kendall_pivot g ctx in
    sum_pivot := !sum_pivot +. ratio d_piv;
    worst_pivot := Float.max !worst_pivot (ratio d_piv);
    let sigma_fr, _ = Rank_consensus.mean_footrule ctx in
    let d_frk = Rank_consensus.expected_kendall ctx sigma_fr in
    sum_fr := !sum_fr +. ratio d_frk;
    worst_fr := Float.max !worst_fr (ratio d_frk)
  done;
  (trials, !fr_ok, !kem_ok, !sum_pivot, !worst_pivot, !sum_fr, !worst_fr)

(* Exact Kemeny orders each Condorcet component of the tournament by its
   own bitmask DP, so the component sizes, not n, set its cost.  The
   components of a matrix and of its transpose coincide, so the
   disagreement matrix is read as it is. *)
let components () =
  let g = Prng.create ~seed:1303 () in
  let per_family = if !Harness.quick then 20 else 250 in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf
           "Condorcet components of the Kendall tournament (%d databases per family)"
           per_family)
      [
        ("family (keys)", Harness.Tables.Left);
        ("mean keys", Harness.Tables.Right);
        ("mean components", Harness.Tables.Right);
        ("mean component size", Harness.Tables.Right);
        ("max component size", Harness.Tables.Right);
      ]
  in
  let components_of db =
    Aggregation.condorcet_components
      (Rank_consensus.disagreement_matrix (Rank_consensus.make_ctx db))
  in
  List.iter
    (fun (name, gen) ->
      let keys = ref 0 and comps = ref 0 and largest = ref 0 in
      for _ = 1 to per_family do
        let cs = components_of (gen ()) in
        Array.iter
          (fun c ->
            keys := !keys + Array.length c;
            largest := max !largest (Array.length c))
          cs;
        comps := !comps + Array.length cs
      done;
      let per x = float_of_int x /. float_of_int per_family in
      Harness.Tables.add_row table
        [
          name; Printf.sprintf "%.1f" (per !keys); Printf.sprintf "%.1f" (per !comps);
          Printf.sprintf "%.2f" (float_of_int !keys /. float_of_int !comps);
          string_of_int !largest;
        ])
    [
      ("BID (2-16)", fun () -> Gen.bid_db g (2 + Prng.int g 15));
      ("x-tuple (2-15)", fun () -> Gen.xtuple_db g (1 + Prng.int g 5));
      ("independent (2-16)", fun () -> Gen.independent_db g (2 + Prng.int g 15));
      ("and/xor tree (2-16)", fun () -> Gen.random_tree_db g (2 + Prng.int g 15));
    ];
  Harness.Tables.print table;
  let dbs = if !Harness.quick then 4 else 40 in
  let t =
    Harness.Tables.create
      ~title:
        (Printf.sprintf
           "exact Kendall rank answer on one-alternative BID databases (%d per size)" dbs)
      [
        ("n keys", Harness.Tables.Right);
        ("mean components", Harness.Tables.Right);
        ("median largest", Harness.Tables.Right);
        ("max largest", Harness.Tables.Right);
        ("median mean_kendall_exact (ms)", Harness.Tables.Right);
      ]
  in
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  List.iter
    (fun n ->
      let comps = ref 0 in
      let largest = Array.make dbs 0 and secs = Array.make dbs 0. in
      for d = 0 to dbs - 1 do
        let db = Gen.bid_db ~max_alts:1 g n in
        let cs = components_of db in
        comps := !comps + Array.length cs;
        largest.(d) <- Array.fold_left (fun m c -> max m (Array.length c)) 0 cs;
        let ctx = Rank_consensus.make_ctx db in
        (* The first call builds the disagreement matrix the context keeps. *)
        ignore (Rank_consensus.mean_kendall_exact ctx);
        let reps = 10 in
        secs.(d) <-
          Harness.time_only (fun () ->
              for _ = 1 to reps do
                ignore (Rank_consensus.mean_kendall_exact ctx)
              done)
          /. float_of_int reps
      done;
      Harness.Tables.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.1f" (float_of_int !comps /. float_of_int dbs);
          string_of_int (median largest);
          string_of_int (Array.fold_left max 0 largest);
          Printf.sprintf "%.4f" (median secs *. 1000.);
        ])
    [ 13; 16 ];
  Harness.Tables.print t

(* The footrule assignment on one-alternative BID databases (every fifth
   key certain on average, as the default generator draws them), on a
   warm context: the rank table is built before the clock starts, so the
   times cover the row heads, the threshold prices and the solve.  Steps
   are Dijkstra steps, each one O(n) row fill and one pass over the
   unscanned columns; augmentations are the rows the greedy start left
   free. *)
let footrule_scaling () =
  let g = Prng.create ~seed:1302 () in
  let dbs = if !Harness.quick then 2 else 3 in
  let t =
    Harness.Tables.create
      ~title:
        (Printf.sprintf
           "footrule assignment per solve, one-alternative BID (mean of %d databases)" dbs)
      [
        ("n keys", Harness.Tables.Right);
        ("Dijkstra steps", Harness.Tables.Right);
        ("steps per key", Harness.Tables.Right);
        ("augmentations", Harness.Tables.Right);
        ("warm mean_footrule (ms)", Harness.Tables.Right);
      ]
  in
  let points =
    List.map
      (fun n ->
        let steps = ref 0 and augs = ref 0 and secs = ref 0. in
        for _ = 1 to dbs do
          let ctx = Rank_consensus.make_ctx (Gen.bid_db ~max_alts:1 g n) in
          let s = Rank_consensus.footrule_assignment ctx in
          steps := !steps + s.steps;
          augs := !augs + s.augmentations;
          let reps = max 1 (240_000 / (n * n)) in
          secs :=
            !secs
            +. Harness.time_only (fun () ->
                   for _ = 1 to reps do
                     ignore (Rank_consensus.mean_footrule ctx)
                   done)
               /. float_of_int reps
        done;
        let per x = float_of_int x /. float_of_int dbs in
        let secs = !secs /. float_of_int dbs in
        Harness.Tables.add_row t
          [
            string_of_int n; Printf.sprintf "%.0f" (per !steps);
            Printf.sprintf "%.2f" (per !steps /. float_of_int n);
            Printf.sprintf "%.0f" (per !augs); Harness.ms secs;
          ];
        (n, per !steps, per !augs, secs))
      (Harness.sizes ~quick_list:[ 50; 100 ] ~full_list:[ 150; 300; 600; 1200 ])
  in
  Harness.Tables.print t;
  let slope f = Harness.slope (List.map (fun (n, s, a, secs) -> (n, f (s, a, secs))) points) in
  Harness.note
    "log-log slopes: Dijkstra steps %.2f, augmentations %.2f, warm mean_footrule %.2f"
    (slope (fun (s, _, _) -> s))
    (slope (fun (_, a, _) -> a))
    (slope (fun (_, _, secs) -> secs));
  print_newline ()

let run () =
  Harness.header "E13: consensus complete rankings (extension of §5 / §7)";
  let trials, fr_ok, kem_ok, sp, wp, sf, wf = correctness () in
  Harness.note "footrule assignment optimal vs brute force: %d/%d" fr_ok trials;
  Harness.note "Kemeny bitmask DP optimal vs brute force: %d/%d" kem_ok trials;
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "Kendall approximation ratios (%d instances)" trials)
      [
        ("method", Harness.Tables.Left);
        ("avg ratio", Harness.Tables.Right);
        ("worst ratio", Harness.Tables.Right);
      ]
  in
  Harness.Tables.add_row table
    [ "pivot + local search"; Printf.sprintf "%.4f" (sp /. float_of_int trials);
      Printf.sprintf "%.4f" wp ];
  Harness.Tables.add_row table
    [ "footrule-optimal (2-approx)"; Printf.sprintf "%.4f" (sf /. float_of_int trials);
      Printf.sprintf "%.4f" wf ];
  Harness.Tables.print table;
  let g = Prng.create ~seed:1302 () in
  let t2 =
    Harness.Tables.create ~title:"scaling (full footrule assignment over all keys)"
      [
        ("n keys", Harness.Tables.Right);
        ("full rank table (ms)", Harness.Tables.Right);
        ("mean footrule (ms)", Harness.Tables.Right);
        ("kendall pivot+LS (ms)", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun n ->
      let db = Gen.bid_db g n in
      let t_table =
        Harness.time_only (fun () ->
            ignore (Consensus_anxor.Marginals.full_rank_table db))
      in
      (* each on a fresh ctx: the footrule builds its own table *)
      let t_fr =
        Harness.time_only (fun () ->
            ignore (Rank_consensus.mean_footrule (Rank_consensus.make_ctx db)))
      in
      let t_kp =
        Harness.time_only (fun () ->
            ignore
              (Rank_consensus.mean_kendall_pivot g (Rank_consensus.make_ctx db)))
      in
      Harness.Tables.add_row t2
        [ string_of_int n; Harness.ms t_table; Harness.ms t_fr; Harness.ms t_kp ])
    (Harness.sizes ~quick_list:[ 20; 40 ] ~full_list:[ 25; 50; 100; 200 ]);
  Harness.Tables.print t2;
  footrule_scaling ();
  components ()
