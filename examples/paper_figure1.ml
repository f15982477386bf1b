(* Reproduce Figure 1 of the paper exactly: the two and/xor trees, their
   generating functions, and the annotated coefficients.

   Run with: dune exec examples/paper_figure1.exe *)

open Consensus_poly
open Consensus_anxor

let () =
  Printf.printf "=== Figure 1(i): block-independent disjoint tuples ===\n";
  let db =
    Db.bid
      [
        (1, [ (0.1, 8.); (0.5, 2.) ]);
        (2, [ (0.4, 3.); (0.4, 4.) ]);
        (3, [ (0.2, 1.); (0.8, 9.) ]);
        (4, [ (0.5, 6.); (0.5, 5.) ]);
      ]
  in
  Format.printf "tree: %a@." Db.pp db;
  let block ps = Db.bid [ (1, List.map (fun p -> (p, 0.)) ps) ] in
  List.iter
    (fun (label, ps) ->
      let f = Genfunc.univariate (fun _ -> Poly1.x) (Db.arena (block ps)) in
      Printf.printf "  block %s generating function: %s\n" label (Poly1.to_string f))
    [ ("t1", [ 0.1; 0.5 ]); ("t2", [ 0.4; 0.4 ]); ("t3", [ 0.2; 0.8 ]); ("t4", [ 0.5; 0.5 ]) ];
  let f = Marginals.size_distribution db in
  Printf.printf "world-size distribution (paper: 0.08 x^2 + 0.44 x^3 + 0.48 x^4):\n  %s\n\n"
    (Poly1.to_string f);

  Printf.printf "=== Figure 1(ii)/(iii): three correlated possible worlds ===\n";
  let w prob alts =
    (prob, Tree.and_ (List.map (fun (k, v) -> Tree.leaf { Db.key = k; Db.value = v }) alts))
  in
  let db3 =
    Db.create
      (Tree.xor
         [
           w 0.3 [ (3, 6.); (2, 5.); (1, 1.) ];
           w 0.3 [ (3, 9.); (1, 7.); (4, 0.) ];
           w 0.4 [ (2, 8.); (4, 4.); (5, 3.) ];
         ])
  in
  Printf.printf "possible worlds (prob, tuples):\n";
  List.iter
    (fun (p, world) ->
      Printf.printf "  %.1f  {%s}\n" p
        (List.map (fun (a : Db.alt) -> Printf.sprintf "(t%d,%g)" a.key a.value) world
        |> String.concat ", "))
    (Worlds.enumerate (Db.tree db3));

  (* The annotated generating function 0.3 y + 0.3 x^2 + 0.4 x: y on the
     leaf (t3,6), x on every leaf with score > 6.  It is linear in y, so
     the Bipoly engine computes it exactly. *)
  let f =
    Genfunc.bipoly
      (fun l ->
        let a = Db.alt db3 l in
        if a.key = 3 && a.value = 6. then Bipoly.y
        else if a.value > 6. then Bipoly.x
        else Bipoly.one)
      (Db.arena db3)
  in
  Printf.printf "\ngenerating function with y on (t3,6), x on higher scores\n";
  Format.printf "(paper: 0.3y + 0.3x^2 + 0.4x):\n  %a@." Bipoly.pp f;
  Printf.printf "coefficient of y = Pr(alternative (t3,6) ranked first) = %g\n"
    (Poly1.coeff f.Bipoly.b 0);

  Printf.printf "\nrank distribution of every key (k = 3):\n";
  List.iter
    (fun (key, dist) ->
      Printf.printf "  t%d: [%s]\n" key
        (Array.to_list dist |> List.map (Printf.sprintf "%.2f") |> String.concat "; "))
    (Marginals.rank_table db3 ~k:3)
