(* E12 — SPJ queries with lineage (§1, §4.1): exact inference correctness vs
   Monte-Carlo, thresholding = mean world, and scaling of the intensional
   evaluation. *)

open Consensus_pdb
module Prng = Consensus_util.Prng

let random_spj g reg ~left ~right ~domain =
  let mk_rows n =
    List.init n (fun i ->
        ( ([| Value.Int i; Value.Int (Prng.int g domain) |] : Relation.tuple),
          0.1 +. Prng.float g 0.85 ))
  in
  let r = Relation.of_independent reg [ "id"; "k" ] (mk_rows left) in
  let s =
    Relation.of_independent reg [ "k"; "v" ]
      (List.init right (fun _ ->
           ( ([| Value.Int (Prng.int g domain); Value.Int (Prng.int g 100) |]
              : Relation.tuple),
             0.1 +. Prng.float g 0.85 )))
  in
  let joined = Algebra.join ~on:[ ("k", "k") ] r s in
  Algebra.project [ "k" ] joined

let run () =
  Harness.header "E12: SPJ queries, lineage and exact inference";
  let g = Prng.create ~seed:1201 () in
  (* correctness: exact vs Monte-Carlo on a correlated projection *)
  let reg = Lineage.Registry.create () in
  let answer = random_spj g reg ~left:12 ~right:12 ~domain:5 in
  let worst_gap = ref 0. in
  List.iter
    (fun (_, l) ->
      let exact = Inference.probability reg l in
      let mc = Inference.probability_mc g reg ~samples:60_000 l in
      worst_gap := Float.max !worst_gap (abs_float (exact -. mc)))
    (Relation.rows answer);
  Harness.note
    "exact inference vs Monte-Carlo (60k samples): worst |gap| = %.4f over %d result tuples"
    !worst_gap
    (Relation.cardinality answer);
  (* thresholding = mean world *)
  let mean = Algebra.mean_world reg answer in
  let by_prob = Relation.probabilities reg answer in
  let expect = List.filter (fun (_, p) -> p > 0.5) by_prob in
  Harness.note "mean world = tuples above 1/2 (Theorem 2 on answers): %b (%d tuples)"
    (List.length mean = List.length expect)
    (List.length mean);
  (* scaling *)
  let table =
    Harness.Tables.create ~title:"scaling: join + correlated projection, exact inference"
      [
        ("|R| = |S|", Harness.Tables.Right);
        ("result tuples", Harness.Tables.Right);
        ("inference (ms)", Harness.Tables.Right);
        ("Shannon expansions", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun n ->
      let reg = Lineage.Registry.create () in
      let answer = random_spj g reg ~left:n ~right:n ~domain:(max 2 (n / 4)) in
      Inference.stats_reset ();
      let t =
        Harness.time_only (fun () -> ignore (Relation.probabilities reg answer))
      in
      Harness.Tables.add_row table
        [
          string_of_int n;
          string_of_int (Relation.cardinality answer);
          Harness.ms t;
          string_of_int (Inference.stats_expansions ());
        ])
    (Harness.sizes ~quick_list:[ 20; 50 ] ~full_list:[ 20; 50; 100; 200; 400 ]);
  Harness.Tables.print table
