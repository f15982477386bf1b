open Consensus_util
open Consensus_anxor
module Gen = Consensus_workload.Gen

let check_float = Alcotest.(check (float 1e-9))

let test_parse_basic () =
  let t = Sexp_io.parse_exn "(leaf 1 5.5)" in
  (match t with
  | Tree.Leaf a ->
      Alcotest.(check int) "key" 1 a.Db.key;
      check_float "value" 5.5 a.Db.value
  | _ -> Alcotest.fail "expected leaf");
  match Sexp_io.parse_exn "(and (leaf 1 2) (xor (0.5 (leaf 2 3))))" with
  | Tree.And [ Tree.Leaf _; Tree.Xor [ (p, Tree.Leaf _) ] ] -> check_float "prob" 0.5 p
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_comments_whitespace () =
  let src = "; a figure-1 style tree\n(xor\n  (0.3 (and (leaf 3 6) (leaf 2 5)))\t(0.7 (leaf 1 1)))" in
  match Sexp_io.parse src with
  | Ok (Tree.Xor [ (a, _); (b, _) ]) ->
      check_float "edge 1" 0.3 a;
      check_float "edge 2" 0.7 b
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let bad s =
    match Sexp_io.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
  in
  bad "";
  bad "(leaf 1)";
  bad "(leaf x 1)";
  bad "(xor (1.5 (leaf 1 1)))" (* probability > 1 *);
  bad "(and (leaf 1 1)" (* missing paren *);
  bad "(or (leaf 1 1))" (* unknown node *);
  bad "(leaf 1 2) (leaf 3 4)" (* trailing input *)

let test_roundtrip_figure1 () =
  let db =
    Db.bid
      [
        (1, [ (0.1, 8.); (0.5, 2.) ]);
        (2, [ (0.4, 3.); (0.4, 4.) ]);
        (3, [ (0.2, 1.); (0.8, 9.) ]);
      ]
  in
  let s = Sexp_io.db_to_string db in
  match Sexp_io.db_of_string s with
  | Error e -> Alcotest.fail e
  | Ok db' ->
      Alcotest.(check int) "same leaves" (Db.num_alts db) (Db.num_alts db');
      for i = 0 to Db.num_alts db - 1 do
        check_float "same marginals" (Db.marginal db i) (Db.marginal db' i)
      done

let prop_roundtrip =
  QCheck.Test.make ~name:"sexp roundtrip preserves the tree" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let g = Prng.create ~seed ()
      in
      let t = Gen.random_tree g (1 + Prng.int g 20) in
      let s = Sexp_io.to_string t in
      match Sexp_io.parse s with
      | Error _ -> false
      | Ok t' ->
          (* structural equality up to float printing (we use %.17g, which
             is lossless for doubles) *)
          Sexp_io.to_string t' = s)

let test_db_of_string_checks_keys () =
  match Sexp_io.db_of_string "(and (leaf 1 2) (leaf 1 3))" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key-constraint violation accepted"

(* ---------- recursion-overflow and allocation regressions ---------- *)

(* A million-leaf tuple-independent database as text:
   (and (xor (p (leaf i v))) ...) *)
let wide_input n =
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf "(and";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf " (xor (0.5 (leaf %d %d.)))" i (i * 2))
  done;
  Buffer.add_char buf ')';
  Buffer.contents buf

let with_temp_file contents f =
  let path = Filename.temp_file "consensus_io" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

let test_wide_million_leaves () =
  let n = 1_000_000 in
  let s = wide_input n in
  (* string path *)
  let t = Sexp_io.parse_exn s in
  Alcotest.(check int) "parsed leaves" n (Tree.num_leaves t);
  (* streaming path straight into the arena, no pointer tree *)
  with_temp_file s (fun ic ->
      match Sexp_io.db_of_channel ~initial_capacity:(2 * n) ic with
      | Error e -> Alcotest.fail e
      | Ok db ->
          Alcotest.(check int) "streamed leaves" n (Db.num_alts db);
          check_float "marginal" 0.5 (Db.marginal db (n - 1)))

let test_deep_nested () =
  let depth = 100_000 in
  let buf = Buffer.create (depth * 16) in
  for _ = 1 to depth do
    Buffer.add_string buf "(and (leaf 0 0.) "
  done;
  Buffer.add_string buf "(leaf 1 1.)";
  for _ = 1 to depth do
    Buffer.add_char buf ')'
  done;
  (* keys repeat, so parse without the Db key check *)
  let t = Sexp_io.parse_exn (Buffer.contents buf) in
  Alcotest.(check int) "leaves" (depth + 1) (Tree.num_leaves t);
  Alcotest.(check int) "depth" depth
    (Arena.depth
       (Arena.of_tree ~key:(fun a -> a.Db.key) ~value:(fun a -> a.Db.value) t));
  (* the writer is iterative too *)
  let s = Sexp_io.to_string t in
  with_temp_file s (fun ic ->
      match Sexp_io.parse_stream ic with
      | Error e -> Alcotest.fail e
      | Ok a -> Alcotest.(check int) "arena depth" depth (Arena.depth a))

let test_stream_allocation_bound () =
  (* the streaming loader must not allocate per token: loading n leaves has
     to stay well under the old tokenizer's hundreds of minor words per
     leaf.  The bound is generous (the arena builder's growable arrays and
     the occasional chunk refill amortize to a few words per leaf). *)
  let n = 200_000 in
  let s = wide_input n in
  with_temp_file s (fun ic ->
      let before = Gc.minor_words () in
      match Sexp_io.parse_stream ~initial_capacity:(2 * n) ic with
      | Error e -> Alcotest.fail e
      | Ok a ->
          let words = Gc.minor_words () -. before in
          Alcotest.(check int) "leaves" n (Arena.num_leaves a);
          let per_leaf = words /. float_of_int n in
          if per_leaf > 80. then
            Alcotest.failf "streaming load allocates %.1f minor words per leaf"
              per_leaf)

let suite =
  [
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "comments and whitespace" `Quick test_parse_comments_whitespace;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "figure 1 roundtrip" `Quick test_roundtrip_figure1;
    Alcotest.test_case "db_of_string key check" `Quick test_db_of_string_checks_keys;
    Alcotest.test_case "million-leaf wide parse" `Slow test_wide_million_leaves;
    Alcotest.test_case "deep nested parse" `Quick test_deep_nested;
    Alcotest.test_case "streaming allocation bound" `Quick test_stream_allocation_bound;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) prop_roundtrip;
  ]
