(* E15 — ablation: truncated polynomial products.  DESIGN.md commits to the
   O(nk) rank computation via degree-capped products (Bipoly with trunc);
   this measures what the cap buys over full-degree products. *)

open Consensus_util
open Consensus_poly
open Consensus_anxor
module Gen = Consensus_workload.Gen

let rank_dist_untruncated db l ~k =
  (* Same computation as Marginals.rank_dist_alt but with full-degree
     polynomials: the ablation baseline. *)
  let a = Db.arena db in
  let value = a.Arena.leaf_value in
  let f =
    Genfunc.bipoly ?trunc:None
      (fun i ->
        if i = l then Bipoly.y else if value.(i) > value.(l) then Bipoly.x else Bipoly.one)
      a
  in
  Array.init k (fun j -> Poly1.coeff f.Bipoly.b j)

let run () =
  Harness.header "E15: ablation — truncated vs full-degree generating functions";
  let g = Prng.create ~seed:1501 () in
  let table =
    Harness.Tables.create
      ~title:"one rank distribution, truncated (O(nk)) vs full (O(n^2))"
      [
        ("n alternatives", Harness.Tables.Right);
        ("k", Harness.Tables.Right);
        ("truncated (ms)", Harness.Tables.Right);
        ("full degree (ms)", Harness.Tables.Right);
        ("speedup", Harness.Tables.Right);
      ]
  in
  let configs =
    Harness.sizes
      ~quick_list:[ (200, 10); (400, 10) ]
      ~full_list:[ (200, 10); (400, 10); (800, 10); (1600, 10); (1600, 40) ]
  in
  let agree = ref true in
  List.iter
    (fun (n, k) ->
      let db = Gen.bid_db g n in
      let l = Db.num_alts db / 2 in
      let trunc_result = ref [||] and full_result = ref [||] in
      let t_trunc =
        Harness.time_only (fun () -> trunc_result := Marginals.rank_dist_alt db l ~k)
      in
      let t_full =
        Harness.time_only (fun () -> full_result := rank_dist_untruncated db l ~k)
      in
      if not (Fcmp.compare_arrays ~eps:1e-9 !trunc_result !full_result) then
        agree := false;
      Harness.Tables.add_row table
        [
          string_of_int (Db.num_alts db);
          string_of_int k;
          Harness.ms t_trunc;
          Harness.ms t_full;
          Printf.sprintf "%.1fx" (t_full /. Float.max 1e-9 t_trunc);
        ])
    configs;
  Harness.Tables.print table;
  Harness.note "truncated and full computations agree on all instances: %b" !agree
