(* E21 — substrate: exact U-Top-k (Soliman et al.) via best-first search /
   level DP vs world enumeration.  U-Top-k is one of the paper's §2
   baselines; the naive mode computation enumerates exponentially many
   worlds. *)

open Consensus_util
module F = Consensus_ranking.Functions
module Gen = Consensus_workload.Gen

let run () =
  Harness.header "E21: exact U-Top-k — best-first search vs enumeration";
  let g = Prng.create ~seed:2101 () in
  (* correctness recap *)
  let trials = if !Harness.quick then 8 else 20 in
  let ok = ref 0 in
  for iter = 1 to trials do
    let db =
      if iter mod 2 = 0 then Gen.independent_db g (3 + Prng.int g 6)
      else Gen.bid_db g (2 + Prng.int g 4)
    in
    let k = 1 + Prng.int g 3 in
    let _, p_bf = F.u_topk_best_first db ~k in
    let enum_answer = F.u_topk db ~k in
    let p_enum = F.u_topk_answer_probability db ~k enum_answer in
    if Fcmp.approx ~eps:1e-9 p_bf p_enum then incr ok
  done;
  Harness.note "best-first mode probability = enumeration mode: %d/%d" !ok trials;
  let table =
    Harness.Tables.create ~title:"scaling (k = 5)"
      [
        ("workload", Harness.Tables.Left);
        ("n", Harness.Tables.Right);
        ("enumeration (ms)", Harness.Tables.Right);
        ("best-first / DP (ms)", Harness.Tables.Right);
        ("mode prob", Harness.Tables.Right);
      ]
  in
  let k = 5 in
  let configs =
    Harness.sizes
      ~quick_list:[ ("independent", 12); ("independent", 50) ]
      ~full_list:
        [
          ("independent", 12);
          ("independent", 100);
          ("independent", 1000);
          ("bid", 10);
          ("bid", 60);
          ("bid", 200);
        ]
  in
  List.iter
    (fun (kind, n) ->
      let db =
        (* high-probability tuples keep the mode mass concentrated, the
           regime U-Top-k is designed for *)
        if kind = "independent" then Gen.independent_db ~p_min:0.5 ~p_max:0.99 g n
        else Gen.bid_db ~max_alts:2 ~forced_fraction:0.7 g n
      in
      let t_enum =
        if n <= 20 then
          Some (Harness.time_only (fun () -> ignore (F.u_topk db ~k)))
        else None
      in
      let (_, p), t_bf = Harness.time_it (fun () -> F.u_topk_best_first db ~k) in
      Harness.Tables.add_row table
        [
          kind;
          string_of_int n;
          (match t_enum with Some t -> Harness.ms t | None -> "(infeasible)");
          Harness.ms t_bf;
          Printf.sprintf "%.4f" p;
        ])
    configs;
  Harness.Tables.print table;
  Harness.note
    "shape check: enumeration dies beyond ~20 tuples (2^n worlds) while the\n\
     best-first search handles thousands when probability mass is\n\
     concentrated — Soliman et al.'s original motivation."
