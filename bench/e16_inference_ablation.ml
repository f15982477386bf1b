(* E16 — ablation: exact lineage inference with and without the
   independent-component decomposition (Shannon expansion only).  DESIGN.md
   calls out the decomposition as the reason SPJ-shaped lineages stay
   tractable.  The read-once fast path is pinned off here so both columns
   really exercise Shannon expansion — its own ablation is E30. *)

open Consensus_util
open Consensus_pdb

let random_answer g reg ~n ~domain =
  let mk n schema =
    Relation.of_independent reg schema
      (List.init n (fun i ->
           ( ([| Value.Int i; Value.Int (Prng.int g domain) |] : Relation.tuple),
             0.1 +. Prng.float g 0.85 )))
  in
  let r = mk n [ "id"; "k" ] in
  let s = mk n [ "k2"; "v" ] in
  let joined =
    Algebra.join ~on:[ ("k", "k2") ]
      (Algebra.project [ "k" ] r)
      s
  in
  Algebra.project [ "k" ] joined

let run () =
  Harness.header "E16: ablation — independence decomposition in exact inference";
  let g = Prng.create ~seed:1601 () in
  let table =
    Harness.Tables.create
      ~title:"probability of every SPJ result tuple, with vs without decomposition"
      [
        ("|R| = |S|", Harness.Tables.Right);
        ("tuples", Harness.Tables.Right);
        ("with decomp (ms)", Harness.Tables.Right);
        ("expansions", Harness.Tables.Right);
        ("without (ms)", Harness.Tables.Right);
        ("expansions", Harness.Tables.Right);
      ]
  in
  let agree = ref true in
  List.iter
    (fun n ->
      let reg = Lineage.Registry.create () in
      let answer = random_answer g reg ~n ~domain:(max 2 (n / 5)) in
      let rows = Relation.rows answer in
      Inference.stats_reset ();
      let with_d, t_with =
        Harness.time_it (fun () ->
            List.map (fun (_, l) -> Inference.probability ~readonce:false reg l) rows)
      in
      let e_with = Inference.stats_expansions () in
      Inference.stats_reset ();
      let without_d, t_without =
        Harness.time_it (fun () ->
            List.map
              (fun (_, l) ->
                Inference.probability ~decompose:false ~readonce:false reg l)
              rows)
      in
      let e_without = Inference.stats_expansions () in
      if
        not
          (List.for_all2 (fun a b -> Fcmp.approx ~eps:1e-9 a b) with_d without_d)
      then agree := false;
      Harness.Tables.add_row table
        [
          string_of_int n;
          string_of_int (List.length rows);
          Harness.ms t_with;
          string_of_int e_with;
          Harness.ms t_without;
          string_of_int e_without;
        ])
    (Harness.sizes ~quick_list:[ 10; 20 ] ~full_list:[ 10; 20; 30; 40 ]);
  Harness.Tables.print table;
  Harness.note "both configurations agree on every probability: %b" !agree
