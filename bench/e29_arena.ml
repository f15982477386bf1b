(* E29 — the flat-arena core: streaming load and allocation-free kernels on
   massive databases.  Three measurements per size:

   1. load: [Sexp_io.db_of_string] (pointer tree, then flattened) vs the
      streaming [Sexp_io.db_of_channel] (chunked reader straight into
      [Arena.Builder] — no token list, no intermediate tree);
   2. the O(nk) rank-table sweep: the flat-buffer kernel
      ([Marginals.rank_table_dense]) and the list API on top of it
      ([Marginals.rank_table]);
   3. minor-heap words allocated by each, via [Gc.minor_words].

   The BID workload keeps every block's mass at 0.7 so the sweep's
   divide-out stays well-conditioned (the fallback path is correctness-
   covered by E22 and the fuzz oracle; here we want the steady-state
   cost).  Results go to BENCH_ARENA.json. *)

open Consensus_anxor
module Json = Consensus_util.Json

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
  }

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
  Harness.note
    "the list API's residual allocation is the result itself (one k-array\n\
     per key); the dense kernel's sweep loop allocates nothing.  The\n\
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
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_ARENA.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "arena sweep written to BENCH_ARENA.json";
  let g = Consensus_util.Prng.create ~seed:2901 () in
  let db = Consensus_workload.Gen.bid_db g (if !Harness.quick then 500 else 2000) in
  Harness.register_bench ~name:"e29/rank_table_flat_buffers" (fun () ->
      ignore (Marginals.rank_table db ~k:10))
