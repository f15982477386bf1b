(* E18 — safe plans (the paper's §7 "connections to safe plans"):
   extensional evaluation of hierarchical conjunctive queries vs the
   intensional lineage inference, correctness and scaling. *)

open Consensus_util
open Consensus_pdb

let hierarchical_query =
  [
    { Safe_plan.relation = "R"; vars = [ "x" ] };
    { Safe_plan.relation = "S"; vars = [ "x"; "y" ] };
    { Safe_plan.relation = "T"; vars = [ "x"; "y"; "z" ] };
  ]

let hard_query =
  [
    { Safe_plan.relation = "R"; vars = [ "x" ] };
    { Safe_plan.relation = "S"; vars = [ "x"; "y" ] };
    { Safe_plan.relation = "T"; vars = [ "y" ] };
  ]

let mk_instance g reg ~rows ~domain =
  let mk name arity =
    ( name,
      Relation.of_independent reg
        (List.init arity (fun i -> Printf.sprintf "%s%d" name i))
        (List.init rows (fun _ ->
             ( Array.init arity (fun _ -> Value.Int (Prng.int g domain)),
               0.1 +. Prng.float g 0.8 ))) )
  in
  [ mk "R" 1; mk "S" 2; mk "T" 3 ]

let mk_hard_instance g reg ~rows ~domain =
  let mk name arity =
    ( name,
      Relation.of_independent reg
        (List.init arity (fun i -> Printf.sprintf "%s%d" name i))
        (List.init rows (fun _ ->
             ( Array.init arity (fun _ -> Value.Int (Prng.int g domain)),
               0.1 +. Prng.float g 0.8 ))) )
  in
  [ mk "R" 1; mk "S" 2; mk "T" 1 ]

let run () =
  Harness.header "E18: safe plans vs intensional lineage inference (§2, §7)";
  (match Safe_plan.plan hierarchical_query with
  | Ok p -> Harness.note "safe plan: %s" (Format.asprintf "%a" Safe_plan.pp_plan p)
  | Error e -> Harness.note "unexpected: %s" e);
  let g = Prng.create ~seed:1801 () in
  (* correctness *)
  let trials = if !Harness.quick then 8 else 25 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let reg = Lineage.Registry.create () in
    let inst = mk_instance g reg ~rows:(3 + Prng.int g 5) ~domain:3 in
    match Safe_plan.eval_extensional reg inst hierarchical_query with
    | Error _ -> ()
    | Ok p ->
        if
          Fcmp.approx ~eps:1e-9 p
            (Safe_plan.eval_intensional reg inst hierarchical_query)
        then incr ok
  done;
  Harness.note "extensional = intensional on random instances: %d/%d" !ok trials;
  Harness.note "hard pattern R(x),S(x,y),T(y) correctly rejected: %b"
    (match Safe_plan.plan hard_query with Error _ -> true | Ok _ -> false);
  let table =
    Harness.Tables.create ~title:"scaling: safe plan vs lineage inference"
      [
        ("rows/relation", Harness.Tables.Right);
        ("extensional (ms)", Harness.Tables.Right);
        ("intensional (ms)", Harness.Tables.Right);
        ("hard query intensional (ms)", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun rows ->
      let reg = Lineage.Registry.create () in
      let inst = mk_instance g reg ~rows ~domain:(max 2 (rows / 3)) in
      let t_ext =
        Harness.time_only (fun () ->
            match Safe_plan.eval_extensional reg inst hierarchical_query with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      let t_int =
        Harness.time_only (fun () ->
            ignore (Safe_plan.eval_intensional reg inst hierarchical_query))
      in
      (* Hard pattern on a fixed dense domain so the exponential trend in
         the lineage treewidth is visible rather than join sparsity. *)
      let hard_rows = min rows 24 in
      let reg2 = Lineage.Registry.create () in
      let inst2 = mk_hard_instance g reg2 ~rows:hard_rows ~domain:4 in
      let t_hard =
        Harness.time_only (fun () ->
            ignore (Safe_plan.eval_intensional reg2 inst2 hard_query))
      in
      Harness.Tables.add_row table
        [
          Printf.sprintf "%d (hard: %d)" rows hard_rows;
          Harness.ms t_ext;
          Harness.ms t_int;
          Harness.ms t_hard;
        ])
    (Harness.sizes ~quick_list:[ 10; 16 ] ~full_list:[ 10; 16; 20; 24; 80 ]);
  Harness.Tables.print table;
  Harness.note
    "shape check: the safe plan stays polynomial while Shannon expansion on\n\
     the non-hierarchical pattern grows quickly — the Dalvi–Suciu dichotomy."
