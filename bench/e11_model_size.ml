(* E11 — §3.2: representation power: the and/xor tree encodes correlated
   possible-world distributions in linear size, where an explicit list of
   worlds is exponential for factored distributions and the BID model cannot
   express co-existence at all. *)

open Consensus_util
open Consensus_anxor
module Gen = Consensus_workload.Gen

(* Explicit representation cost of a distribution: Σ_worlds (1 + |world|). *)
let explicit_cells t =
  Worlds.enumerate t
  |> List.fold_left (fun acc (_, w) -> acc + 1 + List.length w) 0

let run () =
  Harness.header "E11: and/xor tree representation size (§3.2)";
  let table =
    Harness.Tables.create
      ~title:"independent blocks of correlated pairs: tree is linear, explicit is exponential"
      [
        ("blocks", Harness.Tables.Right);
        ("tree nodes", Harness.Tables.Right);
        ("possible worlds", Harness.Tables.Right);
        ("explicit cells", Harness.Tables.Right);
      ]
  in
  let blocks = Harness.sizes ~quick_list:[ 4; 8 ] ~full_list:[ 4; 8; 12; 16 ] in
  List.iter
    (fun b ->
      (* Each block: two mutually exclusive co-existence pairs (the paper's
         Figure 1(iii) pattern), blocks independent. *)
      let block i =
        Tree.xor
          [
            (0.5, Tree.and_ [ Tree.leaf (4 * i); Tree.leaf ((4 * i) + 1) ]);
            (0.5, Tree.and_ [ Tree.leaf ((4 * i) + 2); Tree.leaf ((4 * i) + 3) ]);
          ]
      in
      let t = Tree.and_ (List.init b block) in
      Harness.Tables.add_row table
        [
          string_of_int b;
          string_of_int (Tree.num_nodes t);
          Printf.sprintf "%.0f" (Tree.count_worlds t);
          string_of_int (explicit_cells t);
        ])
    blocks;
  Harness.Tables.print table;
  let g = Prng.create ~seed:1101 () in
  let t2 =
    Harness.Tables.create ~title:"random and/xor trees: nodes vs reachable worlds"
      [
        ("leaves", Harness.Tables.Right);
        ("tree nodes", Harness.Tables.Right);
        ("worlds (<=)", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun n ->
      let t = Gen.random_tree g n in
      Harness.Tables.add_row t2
        [
          string_of_int (Tree.num_leaves t);
          string_of_int (Tree.num_nodes t);
          Printf.sprintf "%.3g" (Tree.count_worlds t);
        ])
    (Harness.sizes ~quick_list:[ 16; 64 ] ~full_list:[ 16; 64; 256; 1024; 4096 ]);
  Harness.Tables.print t2;
  Harness.note
    "shape check: the and/xor model stores exponentially many correlated\n\
     worlds in a linear structure, strictly generalizing BID (Figure 1)."
