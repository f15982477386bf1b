(* E29 — the flat-arena core: streaming load and allocation-free kernels on
   massive databases.  Three measurements per size:

   1. load: [Sexp_io.db_of_string] (pointer tree, then flattened) vs the
      streaming [Sexp_io.db_of_channel] (chunked reader straight into
      [Arena.Builder] — no token list, no intermediate tree);
   2. the O(nk) rank-table sweep: the flat-buffer kernel
      ([Marginals.rank_table_dense]) and the list API on top of it
      ([Marginals.rank_table]);
   3. the §5.5 pair kernel: one [Marginals.topk_pair_prob_ordered] of two
      two-alternative keys (four full-tree arena walks);
   4. minor-heap words allocated by each, via [Gc.minor_words].

   The text workload keeps every block's mass at 0.7 so the sweep's
   divide-out stays well-conditioned.  A second workload is the default
   [Gen.bid_db] shape (1–3 alternatives per key, 20% of keys certain) at
   k = 16, n = 2k…32k keys, where certain blocks shift the sweep and end
   it: its time and minor words, cold (a fresh database, the one score
   sort included) and warm, and the log-log slope of each over [bid_runs]
   runs.  Results go to BENCH_ARENA.json. *)

open Consensus_anxor
module Json = Consensus_util.Json
module Gen = Consensus_workload.Gen
module Prng = Consensus_util.Prng

(* A BID database as text: n/2 two-alternative blocks, distinct keys and
   values.  Built directly as a string so load time starts from bytes. *)
let bid_text n =
  let blocks = n / 2 in
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf "(and";
  for b = 0 to blocks - 1 do
    Buffer.add_string buf
      (Printf.sprintf " (xor (0.4 (leaf %d %d.)) (0.3 (leaf %d %d.)))" b
         (2 * b) b ((2 * b) + 1))
  done;
  Buffer.add_char buf ')';
  Buffer.contents buf

let with_temp_file contents f =
  let path = Filename.temp_file "consensus_e29" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

(* Wall time and minor-heap words of one call.  The [full_major] settles
   GC debt left by earlier measurements so each figure is the call's own
   cost, not its predecessor's deferred collections. *)
let measure f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let result, t = Harness.time_it f in
  (result, t, Gc.minor_words () -. w0)

let mwords w =
  if w > 1e6 then Printf.sprintf "%.0fM" (w /. 1e6)
  else if w > 1e3 then Printf.sprintf "%.0fk" (w /. 1e3)
  else Printf.sprintf "%.0f" w

type row = {
  n : int;
  load_tree_s : float;
  load_tree_w : float;
  load_stream_s : float;
  load_stream_w : float;
  rank_list_s : float;
  rank_list_w : float;
  rank_dense_s : float;
  rank_dense_w : float;
  pair_s : float;
  pair_w : float;
}

let run_size n =
  let s = bid_text n in
  let db_tree, load_tree_s, load_tree_w =
    measure (fun () ->
        match Sexp_io.db_of_string s with
        | Ok db -> db
        | Error e -> failwith e)
  in
  let db, load_stream_s, load_stream_w =
    with_temp_file s (fun ic ->
        measure (fun () ->
            match Sexp_io.db_of_channel ~initial_capacity:(2 * n) ic with
            | Ok db -> db
            | Error e -> failwith e))
  in
  assert (Db.num_alts db = Db.num_alts db_tree);
  let k = 10 in
  let _, rank_list_s, rank_list_w =
    measure (fun () -> Marginals.rank_table db ~k)
  in
  let _, rank_dense_s, rank_dense_w =
    measure (fun () -> Marginals.rank_table_dense db ~k)
  in
  (* key 1 (values 2., 3.) above key 0 (values 0., 1.): all four
     alternative pairs count *)
  let _, pair_s, pair_w =
    measure (fun () -> Marginals.topk_pair_prob_ordered db 1 0 ~k)
  in
  {
    n;
    load_tree_s;
    load_tree_w;
    load_stream_s;
    load_stream_w;
    rank_list_s;
    rank_list_w;
    rank_dense_s;
    rank_dense_w;
    pair_s;
    pair_w;
  }

(* ---- the default Gen.bid_db shape ---- *)

let bid_k = 16

let median xs = Consensus_util.Stats.percentile (Array.of_list xs) 50.

type bid_point = {
  keys : int;
  cold_s : float;
  cold_w : float;
  warm_s : float;
  warm_w : float;
}

(* One run over the sizes: per size a fresh database, one cold call, then
   the best of three warm calls. *)
let bid_run ~forced_fraction ~seed sizes =
  List.map
    (fun keys ->
      let db = Gen.bid_db ~forced_fraction (Prng.create ~seed:(seed + keys) ()) keys in
      let sweep () = Marginals.rank_table_dense db ~k:bid_k in
      let _, cold_s, cold_w = measure sweep in
      let warm = List.init 3 (fun _ -> measure sweep) in
      let _, warm_s, warm_w =
        List.fold_left
          (fun ((_, bt, _) as best) ((_, t, _) as m) -> if t < bt then m else best)
          (List.hd warm) (List.tl warm)
      in
      { keys; cold_s; cold_w; warm_s; warm_w })
    sizes

let run () =
  Harness.header "E29: flat-arena core — streaming load and buffer kernels";
  let sizes =
    Harness.sizes ~quick_list:[ 10_000 ]
      ~full_list:[ 10_000; 100_000; 1_000_000 ]
  in
  let rows = List.map run_size sizes in
  let load_table =
    Harness.Tables.create ~title:"database load from text"
      [
        ("n alternatives", Harness.Tables.Right);
        ("tree path (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
        ("streaming (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
        ("words/leaf", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun r ->
      Harness.Tables.add_row load_table
        [
          string_of_int r.n;
          Harness.ms r.load_tree_s;
          mwords r.load_tree_w;
          Harness.ms r.load_stream_s;
          mwords r.load_stream_w;
          Printf.sprintf "%.1f" (r.load_stream_w /. float_of_int r.n);
        ])
    rows;
  Harness.Tables.print load_table;
  let rank_table =
    Harness.Tables.create ~title:"O(nk) rank-table sweep, k = 10"
      [
        ("n alternatives", Harness.Tables.Right);
        ("list API (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
        ("dense kernel (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun r ->
      Harness.Tables.add_row rank_table
        [
          string_of_int r.n;
          Harness.ms r.rank_list_s;
          mwords r.rank_list_w;
          Harness.ms r.rank_dense_s;
          mwords r.rank_dense_w;
        ])
    rows;
  Harness.Tables.print rank_table;
  let pair_table =
    Harness.Tables.create ~title:"top-k pair kernel, k = 10"
      [
        ("n alternatives", Harness.Tables.Right);
        ("ordered pair (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun r ->
      Harness.Tables.add_row pair_table
        [ string_of_int r.n; Harness.ms r.pair_s; mwords r.pair_w ])
    rows;
  Harness.Tables.print pair_table;
  let bid_sizes =
    Harness.sizes ~quick_list:[ 2_000; 4_000 ]
      ~full_list:[ 2_000; 4_000; 8_000; 16_000; 32_000 ]
  in
  let bid_runs = if !Harness.quick then 1 else 5 in
  let runs =
    List.init bid_runs (fun r ->
        bid_run ~forced_fraction:0.2 ~seed:(2900 + (1000 * r)) bid_sizes)
  in
  let slopes sel =
    List.map (fun run -> Harness.slope (List.map (fun p -> (p.keys, sel p)) run)) runs
  in
  let cold_slopes = slopes (fun p -> p.cold_s)
  and warm_slopes = slopes (fun p -> p.warm_s) in
  let spread xs = List.fold_left Float.max neg_infinity xs -. List.fold_left Float.min infinity xs in
  (* per size: median times over the runs, words of the last run *)
  let bid_rows =
    List.mapi
      (fun i keys ->
        let at sel = median (List.map (fun run -> sel (List.nth run i)) runs) in
        let last = List.nth (List.nth runs (bid_runs - 1)) i in
        { keys; cold_s = at (fun p -> p.cold_s); cold_w = last.cold_w;
          warm_s = at (fun p -> p.warm_s); warm_w = last.warm_w })
      bid_sizes
  in
  (* the case still open: no certain blocks, so no stop and the rebuild
     for high-mass blocks stays; one run, not pinned *)
  let open_case = bid_run ~forced_fraction:0. ~seed:2950 bid_sizes in
  let bid_table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf "rank-table sweep on Gen.bid_db, k = %d, median of %d runs" bid_k
           bid_runs)
      [
        ("keys", Harness.Tables.Right);
        ("cold (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
        ("warm (ms)", Harness.Tables.Right);
        ("minor words", Harness.Tables.Right);
        ("no certain blocks, warm (ms)", Harness.Tables.Right);
      ]
  in
  List.iter2
    (fun r o ->
      Harness.Tables.add_row bid_table
        [
          string_of_int r.keys;
          Harness.ms r.cold_s;
          mwords r.cold_w;
          Harness.ms r.warm_s;
          mwords r.warm_w;
          Harness.ms o.warm_s;
        ])
    bid_rows open_case;
  Harness.Tables.print bid_table;
  let open_slope = Harness.slope (List.map (fun p -> (p.keys, p.warm_s)) open_case) in
  Harness.note "slopes: cold %.2f (runs %s), warm %.2f; no certain blocks %.2f"
    (median cold_slopes)
    (String.concat " " (List.map (Printf.sprintf "%.2f") cold_slopes))
    (median warm_slopes) open_slope;
  Harness.note
    "the list API's residual allocation is the result itself (one k-array\n\
     per key); the dense kernel's sweep loop allocates nothing, and the\n\
     pair kernel allocates only its workspace, whatever the size.  The\n\
     streaming loader's words/leaf figure is the whole budget per tuple —\n\
     the old tokenizer materialized hundreds of words of token list per\n\
     tuple before building anything.";
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e29_arena");
        ( "workload",
          Json.Str "BID text database, two alternatives per block, k = 10" );
        ("k", Json.Int 10);
        ( "sizes",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("n", Json.Int r.n);
                     ("load_tree_s", Json.Float r.load_tree_s);
                     ("load_tree_minor_words", Json.Float r.load_tree_w);
                     ("load_stream_s", Json.Float r.load_stream_s);
                     ("load_stream_minor_words", Json.Float r.load_stream_w);
                     ("rank_table_list_s", Json.Float r.rank_list_s);
                     ("rank_table_list_minor_words", Json.Float r.rank_list_w);
                     ("rank_table_dense_s", Json.Float r.rank_dense_s);
                     ("rank_table_dense_minor_words", Json.Float r.rank_dense_w);
                     ("topk_pair_s", Json.Float r.pair_s);
                     ("topk_pair_minor_words", Json.Float r.pair_w);
                   ])
               rows) );
        ( "bid_default",
          Json.Obj
            [
              ( "workload",
                Json.Str
                  "Gen.bid_db, 1-3 alternatives per key, 20% of keys certain; cold = \
                   fresh database, sort included" );
              ("k", Json.Int bid_k);
              ("runs", Json.Int bid_runs);
              ( "sizes",
                Json.List
                  (List.map
                     (fun r ->
                       Json.Obj
                         [
                           ("keys", Json.Int r.keys);
                           ("cold_s", Json.Float r.cold_s);
                           ("cold_minor_words", Json.Float r.cold_w);
                           ("warm_s", Json.Float r.warm_s);
                           ("warm_minor_words", Json.Float r.warm_w);
                         ])
                     bid_rows) );
              ("cold_slopes", Json.List (List.map (fun x -> Json.Float x) cold_slopes));
              ("cold_slope", Json.Float (median cold_slopes));
              ("cold_slope_spread", Json.Float (spread cold_slopes));
              ("warm_slopes", Json.List (List.map (fun x -> Json.Float x) warm_slopes));
              ("warm_slope", Json.Float (median warm_slopes));
              ("no_certain_blocks_warm_slope", Json.Float open_slope);
            ] );
      ]
  in
  Harness.write_json "BENCH_ARENA.json" json
