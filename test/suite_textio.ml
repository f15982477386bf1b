open Consensus_anxor
module F = Consensus_textio.Formats

let check_float = Alcotest.(check (float 1e-9))

let test_db_bid_format () =
  let db =
    F.db_of_lines
      [
        "# comment";
        "";
        "1 0.6:91 0.4:75";
        "2 0.9:88";
        "\t3   0.5:95\t0.3:60";
      ]
  in
  Alcotest.(check int) "keys" 3 (Db.num_keys db);
  Alcotest.(check int) "alternatives" 5 (Db.num_alts db);
  check_float "key marginal" 1.0 (Db.key_marginal db 1);
  check_float "key marginal sub-stochastic" 0.8 (Db.key_marginal db 3)

let test_db_tree_format () =
  let db =
    F.db_of_lines
      [
        "; tree format auto-detected";
        "(xor (0.3 (and (leaf 1 5) (leaf 2 4))) (0.7 (leaf 3 9)))";
      ]
  in
  Alcotest.(check int) "keys" 3 (Db.num_keys db);
  check_float "marginal" 0.3 (Db.key_marginal db 1);
  check_float "marginal" 0.7 (Db.key_marginal db 3)

let fails f =
  match f () with
  | exception Failure _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad input accepted"

let test_db_errors () =
  fails (fun () -> F.db_of_lines [ "1" ]);
  fails (fun () -> F.db_of_lines [ "x 0.5:1" ]);
  fails (fun () -> F.db_of_lines [ "1 0.5-1" ]);
  fails (fun () -> F.db_of_lines [ "1 0.7:1 0.7:2" ]) (* block mass > 1 *);
  fails (fun () -> F.db_of_lines [ "# only comments" ]);
  fails (fun () -> F.db_of_lines [ "(leaf 1" ])

(* A NaN score has no rank, so both database syntaxes reject it at load,
   naming where it is and the token. *)
let test_db_nan_score () =
  let message f =
    match f () with
    | exception Failure msg -> msg
    | _ -> Alcotest.fail "a NaN score was accepted"
  in
  let bid =
    message (fun () ->
        F.db_of_lines ~path:"db.txt" [ "0 0.5:3"; "1 0.6:nan"; "2 0.7:1" ])
  in
  Alcotest.(check string)
    "BID: line and token" "db.txt:2: score must be a number in \"0.6:nan\"" bid;
  let tree =
    message (fun () ->
        F.db_of_lines ~path:"db.txt"
          [ "(xor (0.5 (leaf 0 3)) (0.4 (leaf 1 NaN)))" ])
  in
  Alcotest.(check string)
    "tree: offset and token"
    "db.txt: at 35: a score must be a number, got \"NaN\"" tree;
  (* A NaN probability was already refused; infinities are ordered scores. *)
  fails (fun () -> F.db_of_lines [ "1 nan:2" ]);
  let db = F.db_of_lines [ "0 0.5:inf"; "1 0.6:-inf" ] in
  Alcotest.(check int) "infinite scores load" 2 (Db.num_keys db)

let test_matrix () =
  let m = F.matrix_of_lines [ "0.5 0.5"; "# c"; "1.0\t0.0" ] in
  Alcotest.(check int) "rows" 2 (Array.length m);
  check_float "entry" 0.5 m.(0).(1);
  check_float "entry" 1.0 m.(1).(0);
  fails (fun () -> F.matrix_of_lines [ "0.5 oops" ])

let test_cnf () =
  let nv, clauses = F.cnf_of_lines [ "c comment"; "p cnf 3 2"; "1 -2 0"; "-1 3 0" ] in
  Alcotest.(check int) "vars" 3 nv;
  Alcotest.(check int) "clauses" 2 (Array.length clauses);
  (match clauses.(0) with
  | [ (0, true); (1, false) ] -> ()
  | _ -> Alcotest.fail "clause 0 wrong");
  fails (fun () -> F.cnf_of_lines [ "1 x 0" ])

let suite =
  [
    Alcotest.test_case "db BID format" `Quick test_db_bid_format;
    Alcotest.test_case "db tree format" `Quick test_db_tree_format;
    Alcotest.test_case "db errors" `Quick test_db_errors;
    Alcotest.test_case "matrix" `Quick test_matrix;
    Alcotest.test_case "cnf" `Quick test_cnf;
    Alcotest.test_case "db NaN score" `Quick test_db_nan_score;
  ]
