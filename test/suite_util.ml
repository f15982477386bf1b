open Consensus_util

let check_float = Alcotest.(check (float 1e-9))

let test_prng_deterministic () =
  let g1 = Prng.create ~seed:42 () in
  let g2 = Prng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 g1) (Prng.bits64 g2)
  done

let test_prng_bounds () =
  let g = Prng.create ~seed:7 () in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let f = Prng.uniform g in
    Alcotest.(check bool) "uniform in range" true (f >= 0. && f < 1.)
  done

let test_prng_uniformity () =
  let g = Prng.create ~seed:3 () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (abs_float (freq -. 0.1) < 0.01))
    counts

let test_prng_split_independent () =
  let g = Prng.create ~seed:11 () in
  let child = Prng.split g in
  let a = Prng.bits64 g and b = Prng.bits64 child in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_prng_categorical () =
  let g = Prng.create ~seed:5 () in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Prng.categorical g w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  let f0 = float_of_int counts.(0) /. 40_000. in
  Alcotest.(check bool) "ratio 1/4" true (abs_float (f0 -. 0.25) < 0.02)

let test_prng_sample_distinct () =
  let g = Prng.create ~seed:13 () in
  for _ = 1 to 100 do
    let s = Prng.sample_distinct g 5 12 in
    Alcotest.(check int) "5 samples" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 12)) s
  done

let test_prng_shuffle_permutation () =
  let g = Prng.create ~seed:17 () in
  let a = Array.init 20 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_prng_gaussian_moments () =
  let g = Prng.create ~seed:23 () in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.gaussian g ~mean:2. ~stddev:3.) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "mean approx 2" true (abs_float (s.Stats.mean -. 2.) < 0.05);
  Alcotest.(check bool) "sd approx 3" true (abs_float (s.Stats.stddev -. 3.) < 0.05)

let test_prng_range_exponential () =
  let g = Prng.create ~seed:29 () in
  for _ = 1 to 500 do
    let v = Prng.range g (-3) 4 in
    Alcotest.(check bool) "range inclusive" true (v >= -3 && v <= 4)
  done;
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.exponential g ~rate:2.) in
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x >= 0.)) xs;
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean approx 1/rate" true (abs_float (m -. 0.5) < 0.02);
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Prng.exponential: rate must be positive") (fun () ->
      ignore (Prng.exponential g ~rate:0.))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_stats_pp () =
  let s = Stats.summarize [| 1.; 2.; 3. |] in
  let rendered = Format.asprintf "%a" Stats.pp_summary s in
  Alcotest.(check bool) "mentions mean" true (contains rendered "mean=2");
  Alcotest.(check bool) "mentions n" true (contains rendered "(n=3)")

let test_heap_ordering () =
  let g = Prng.create ~seed:31 () in
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  let values = List.init 200 (fun _ -> Prng.uniform g) in
  List.iter (fun v -> Heap.push h v v) values;
  Alcotest.(check int) "size" 200 (Heap.size h);
  (match Heap.peek_max h with
  | Some (p, _) ->
      Alcotest.(check (float 1e-12)) "peek is max"
        (List.fold_left Float.max 0. values) p
  | None -> Alcotest.fail "empty heap");
  let rec drain acc =
    match Heap.pop_max h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  let drained = drain [] in
  Alcotest.(check (list (float 1e-12))) "pops in decreasing order"
    (List.sort (fun a b -> Float.compare b a) values)
    drained;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_fcmp () =
  Alcotest.(check bool) "approx eq" true (Fcmp.approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "not approx" false (Fcmp.approx 1.0 1.1);
  Alcotest.(check bool) "relative scale" true (Fcmp.approx 1e12 (1e12 +. 1.));
  Alcotest.(check bool) "leq" true (Fcmp.leq 1.0 (1.0 -. 1e-12));
  Alcotest.(check bool) "prob ok" true (Fcmp.is_probability 1.0);
  Alcotest.(check bool) "prob bad" false (Fcmp.is_probability 1.5);
  check_float "clamp" 1.0 (Fcmp.clamp_probability (1.0 +. 1e-12));
  Alcotest.check_raises "clamp rejects" (Invalid_argument "clamp_probability: 2 is not a probability")
    (fun () -> ignore (Fcmp.clamp_probability 2.))

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "mean" 3. s.Stats.mean;
  check_float "median" 3. s.Stats.median;
  check_float "min" 1. s.Stats.min;
  check_float "max" 5. s.Stats.max;
  check_float "sd" (sqrt 2.5) s.Stats.stddev

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  check_float "p0" 10. (Stats.percentile xs 0.);
  check_float "p100" 40. (Stats.percentile xs 100.);
  check_float "p50" 25. (Stats.percentile xs 50.)

let test_harmonic () =
  check_float "H_0" 0. (Stats.harmonic 0);
  check_float "H_1" 1. (Stats.harmonic 1);
  check_float "H_4" (1. +. 0.5 +. (1. /. 3.) +. 0.25) (Stats.harmonic 4)

let test_tables_render () =
  let t = Tables.create ~title:"T" [ ("a", Tables.Left); ("b", Tables.Right) ] in
  Tables.add_row t [ "x"; "1" ];
  Tables.add_rowf t "yy|%d" 22;
  let s = Tables.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "yy  22"))

(* ---------- Ring ---------- *)

let ring_list ?limit ?stop r =
  List.rev (Ring.fold ?limit ?stop r (fun acc x -> x :: acc) [])

let test_ring_order_limit_clear () =
  let r = Ring.create 4 0 in
  Alcotest.(check (list int)) "empty" [] (ring_list r);
  for i = 1 to 3 do Ring.push r i done;
  Alcotest.(check (list int)) "below capacity, newest first" [ 3; 2; 1 ] (ring_list r);
  for i = 4 to 6 do Ring.push r i done;
  Alcotest.(check (list int)) "wrapped: newest four" [ 6; 5; 4; 3 ] (ring_list r);
  Alcotest.(check (list int)) "limit" [ 6; 5 ] (ring_list ~limit:2 r);
  Alcotest.(check (list int)) "limit past length" [ 6; 5; 4; 3 ] (ring_list ~limit:99 r);
  Alcotest.(check (list int)) "negative limit" [] (ring_list ~limit:(-1) r);
  Alcotest.(check (list int)) "stop is inclusive" [ 6; 5 ]
    (ring_list ~stop:(fun x -> x = 5) r);
  let seen = ref 0 in
  ignore (Ring.fold ~stop:(fun x -> x <= 5) r (fun () _ -> incr seen) ());
  Alcotest.(check int) "early exit visits no further" 2 !seen;
  Alcotest.(check int) "fold threads the accumulator" 18
    (Ring.fold r ( + ) 0);
  Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (ring_list r);
  Ring.push r 7;
  Alcotest.(check (list int)) "push after clear" [ 7 ] (ring_list r);
  Alcotest.check_raises "capacity 0" (Invalid_argument "Ring.create: capacity must be >= 1")
    (fun () -> ignore (Ring.create 0 ()))

(* Four domains push through a 64-slot ring while a reader folds it: every
   snapshot, and the final state, holds each writer's values newest first
   with no slot lost or duplicated. *)
let test_ring_concurrent_wraparound () =
  let cap = 64 and per_writer = 2000 in
  let r = Ring.create cap (-1, -1) in
  let check_snapshot what entries =
    let last = Array.make 4 max_int in
    List.iter
      (fun (w, i) ->
        if w < 0 then Alcotest.failf "%s: filler slot surfaced" what;
        if i >= last.(w) then Alcotest.failf "%s: writer %d out of order" what w;
        last.(w) <- i)
      entries
  in
  let go = Atomic.make false and finished = Atomic.make 0 in
  let writers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for i = 0 to per_writer - 1 do
              Ring.push r (w, i)
            done;
            Atomic.incr finished))
  in
  Atomic.set go true;
  let rec read () =
    let snap = ring_list r in
    if List.length snap > cap then Alcotest.fail "snapshot exceeds capacity";
    check_snapshot "concurrent snapshot" snap;
    if Atomic.get finished < 4 then read ()
  in
  read ();
  List.iter Domain.join writers;
  let final = ring_list r in
  Alcotest.(check int) "exactly capacity retained" cap (List.length final);
  check_snapshot "final" final;
  Alcotest.(check bool) "the last push is the newest" true
    (match final with (_, i) :: _ -> i = per_writer - 1 | [] -> false)

(* ---------- Json ---------- *)

(* The emitter's bytes are pinned literally: a bug shared by the emitter and
   the parser would survive a round trip, not this. *)
let test_json_golden () =
  let open Json in
  let v =
    Obj
      [
        ("null", Null); ("t", Bool true); ("f", Bool false);
        ("ints", List [ Int 0; Int (-42); Int max_int ]);
        ( "floats",
          List
            [
              Float 0.1; Float 1e-6; Float 100.; Float (-2.5); Float (1. /. 3.);
              Float 0.1234567890123; Float 1e300; Float nan; Float infinity;
            ] );
        ("str", Str "a\"b\\c/\n\r\t\b\012\001\x7f\xc3\xa9");
        ("empty", Obj [ ("l", List []); ("o", Obj []) ]);
        ("esc\"key", Str "");
      ]
  in
  Alcotest.(check string) "emitted bytes"
    "{\"null\":null,\"t\":true,\"f\":false,\"ints\":[0,-42,4611686018427387903],\
     \"floats\":[0.1,1e-06,100,-2.5,0.33333333333333331,0.12345678901230001,\
     1e+300,null,null],\
     \"str\":\"a\\\"b\\\\c/\\n\\r\\t\\b\\f\\u0001\x7f\xc3\xa9\",\
     \"empty\":{\"l\":[],\"o\":{}},\"esc\\\"key\":\"\"}"
    (to_string v)

let parses_to what expected text =
  match Json.of_string text with
  | Ok v -> Alcotest.(check bool) what true (v = expected)
  | Error msg -> Alcotest.failf "%s: %s" what msg

let rejects what ~at text =
  match Json.of_string text with
  | Ok _ -> Alcotest.failf "%s: accepted %S" what text
  | Error msg ->
      let suffix = Printf.sprintf "at byte %d" at in
      Alcotest.(check bool) (what ^ ": " ^ msg) true
        (String.ends_with ~suffix msg)

let test_json_escapes () =
  parses_to "latin-1 e acute" (Json.Str "\xc3\xa9") {|"\u00e9"|};
  parses_to "U+0100" (Json.Str "\xc4\x80") {|"\u0100"|};
  parses_to "surrogate pair" (Json.Str "\xf0\x9f\x98\x80") {|"\ud83d\ude00"|};
  parses_to "control and solidus" (Json.Str "\001/\n") {|"\u0001\/\n"|};
  parses_to "raw UTF-8 passes through" (Json.Str "\xc3\xa9") "\"\xc3\xa9\"";
  rejects "lone high surrogate" ~at:7 {|"\ud83d"|};
  rejects "lone low surrogate" ~at:7 {|"\ude00"|};
  rejects "bad hex" ~at:3 {|"\u00g9"|};
  rejects "raw control character" ~at:2 "\"a\nb\""

let test_json_parser () =
  parses_to "integer literal" (Json.Int 12) "12";
  parses_to "negative zero is an int" (Json.Int 0) "-0";
  parses_to "fraction" (Json.Float 12.) "12.0";
  parses_to "exponent" (Json.Float 100.) "1e2";
  parses_to "int overflow reads as float" (Json.Float 1e30)
    "1000000000000000000000000000000";
  parses_to "surrounding whitespace"
    (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Null ]) ])
    " \t{ \"a\" : [ 1 , null ] }\r\n";
  rejects "trailing comma" ~at:3 "[1,]";
  rejects "trailing characters" ~at:3 "{} x";
  rejects "leading zero" ~at:1 "01";
  rejects "bare minus" ~at:1 "-";
  rejects "missing fraction digits" ~at:2 "1.";
  rejects "empty input" ~at:0 "";
  rejects "unterminated string" ~at:4 {|"abc|};
  Alcotest.(check (option (float 0.))) "member + to_float" (Some 3.)
    (Option.bind (Json.member "x" (Json.Obj [ ("x", Json.Int 3) ])) Json.to_float);
  Alcotest.(check bool) "member of a non-object" true
    (Json.member "x" (Json.List []) = None)

(* Round trip: parsing emitted text gives the tree back, except that an
   integral float is spelled like an integer and so comes back as [Int]. *)
let rec json_equiv a b =
  match (a, b) with
  | Json.Float f, Json.Int i | Json.Int i, Json.Float f -> Float.of_int i = f
  | Json.Float f, Json.Float g -> f = g
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equiv xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equiv x y) xs ys
  | _ -> a = b

let json_gen =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun i -> Json.Float (float_of_int i)) small_signed_int;
        map (fun f -> Json.Float f) finite;
        map (fun s -> Json.Str s) string;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair string (self (n - 1)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~count:500 ~name:"json of_string (to_string v) = v"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok w -> json_equiv v w
      | Error msg -> QCheck.Test.fail_report msg)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng uniformity" `Slow test_prng_uniformity;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng categorical" `Quick test_prng_categorical;
    Alcotest.test_case "prng sample_distinct" `Quick test_prng_sample_distinct;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng gaussian moments" `Slow test_prng_gaussian_moments;
    Alcotest.test_case "prng range/exponential" `Slow test_prng_range_exponential;
    Alcotest.test_case "stats pp" `Quick test_stats_pp;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "fcmp" `Quick test_fcmp;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
    Alcotest.test_case "tables render" `Quick test_tables_render;
    Alcotest.test_case "ring order, limit, clear and early exit" `Quick
      test_ring_order_limit_clear;
    Alcotest.test_case "ring wraparound from four domains" `Quick
      test_ring_concurrent_wraparound;
    Alcotest.test_case "json golden bytes" `Quick test_json_golden;
    Alcotest.test_case "json escapes decode to UTF-8" `Quick test_json_escapes;
    Alcotest.test_case "json numbers and errors" `Quick test_json_parser;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
  ]
