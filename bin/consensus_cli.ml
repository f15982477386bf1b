(* Command-line interface to the consensus-answer library.

     consensus topk      -i db.txt -k 10 --metric symdiff|intersection|footrule|kendall [--median]
     consensus world     -i db.txt --metric symdiff|jaccard [--median]
     consensus rank      -i db.txt --metric footrule|kendall
     consensus aggregate -i matrix.txt [--median]
     consensus cluster   -i db.txt [--trials N] [--samples N]
     consensus explain   -i db.txt 'topk k=8 metric=kendall' [--format text|json]
     consensus maxsat    -i formula.cnf
     consensus demo      [-n N] [-k K] [--seed S]
     consensus serve     --db NAME=FILE ... [--port P] [--max-inflight N]
                         [--max-queue N] [--deadline-ms MS]

   Query commands accept --jobs N (0 = auto) to size the engine pool and
   --stats to dump per-stage engine metrics on stderr.  serve takes no
   --jobs: its parallelism is the request, one per scheduler worker
   domain, each running its kernels inline.  batch and fuzz also
   accept --listen PORT to serve /metrics, /healthz and /trace over HTTP
   while they run.  All evaluation goes through the [Consensus.Api] facade;
   see lib/textio/formats.mli for the input formats. *)

open Cmdliner
open Consensus_anxor
open Consensus
module Pool = Consensus_engine.Pool
module Obs = Consensus_obs.Obs
module Report = Consensus_obs.Report
module Expose = Consensus_obs.Expose

let pp_answer answer =
  Array.to_list answer |> List.map string_of_int |> String.concat "; "

let pp_world db w =
  List.map
    (fun l ->
      let a = Db.alt db l in
      Printf.sprintf "(%d,%g)" a.Db.key a.Db.value)
    w
  |> String.concat "; "

(* ---- common arguments ---- *)

let input =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input file ('-' for stdin).")

let k_arg =
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Answer size for top-k queries.")

let median_flag =
  Arg.(
    value & flag
    & info [ "median" ]
        ~doc:"Return the median answer (restricted to possible answers) instead of the mean.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed for randomized algorithms.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for parallel evaluation (0 = one per core).")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print per-stage engine statistics on stderr after the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record an execution trace and write it to $(docv) as Chrome \
           trace_event JSON (open in chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some (Arg.enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Dump observability metrics on stderr after the run; $(docv) is \
           $(b,text) (Prometheus exposition) or $(b,json).")

(* The engine pool of a CLI run: sized from --jobs, shared by every parallel
   stage of the query via the facade.  Observability is switched on before
   the query runs iff --trace or --metrics asked for output. *)
let setup_pool ?(trace = None) ?(metrics = None) jobs =
  if jobs < 0 then begin
    Printf.eprintf "consensus: option '--jobs': value must be >= 0 (got %d)\n" jobs;
    exit 124
  end;
  if trace <> None || metrics <> None then Obs.set_enabled true;
  Pool.set_global_jobs jobs;
  Pool.get_global ()

(* The one reporting path of the CLI: --stats, --metrics and --trace all
   emit on stderr (or to the named file), so piped query output on stdout
   stays machine-clean. *)
let report ?(stats = false) ?(metrics = None) ?(trace = None) pool =
  if stats then
    Format.eprintf "engine stats (jobs = %d):@.%a@." (Pool.jobs pool)
      Consensus_engine.Metrics.pp (Pool.metrics pool);
  (match metrics with
  | None -> ()
  | Some `Text -> prerr_string (Obs.metrics_text ())
  | Some `Json -> prerr_endline (Obs.metrics_json ()));
  match trace with
  | None -> ()
  | Some path ->
      Obs.write_trace path;
      Printf.eprintf "trace written to %s\n%!" path

(* Raised inside [handle] bodies instead of calling [exit] directly, so the
   reporting tail (--stats/--metrics/--trace, and shutting a --listen server
   down) still runs on the failure paths. *)
exception Exit_code of int

(* Unsupported metric/flavor combinations exit cleanly with a message, not a
   backtrace: `consensus topk --median --metric kendall` must fail loudly.
   Returns the process exit code; callers [exit] with it only after
   reporting. *)
let handle f =
  try
    f ();
    0
  with
  | Exit_code code -> code
  | Api.Unsupported msg ->
      Printf.eprintf "consensus: %s\n" msg;
      2
  | Invalid_argument msg ->
      Printf.eprintf "consensus: invalid input: %s\n" msg;
      2

(* [load f path] inside a [handle] body: an input file that cannot be read
   ([Sys_error]) or does not parse (the [Failure] of
   [Consensus_textio.Formats]) is a clean input error, exit 2.  Both
   messages already lead with the path. *)
let load f path =
  try f path
  with Sys_error msg | Failure msg ->
    Printf.eprintf "consensus: %s\n" msg;
    raise (Exit_code 2)

(* ---- live exposition (--listen) ---- *)

let listen_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Serve live observability over HTTP on 127.0.0.1:$(docv) while the \
           command runs: $(b,GET /metrics) (Prometheus text), $(b,/healthz) \
           and $(b,/trace) (Chrome trace_event JSON).  Port 0 picks an \
           ephemeral port; the bound address is printed on stderr.  Implies \
           observability recording.")

let listen_hold_flag =
  Arg.(
    value & flag
    & info [ "listen-hold" ]
        ~doc:
          "With $(b,--listen), keep serving after the run completes until a \
           client requests $(b,GET /quit).")

let start_listener = function
  | None -> None
  | Some port ->
      Obs.set_enabled true;
      let server = Expose.start ~port () in
      Printf.eprintf "listening on 127.0.0.1:%d\n%!" (Expose.port server);
      Some server

let finish_listener ~hold server =
  Option.iter
    (fun server ->
      if hold then Expose.wait_quit server;
      Expose.stop server)
    server

let flavor_of_median median = if median then Api.Median else Api.Mean

(* ---- topk ---- *)

let metric_conv names = Arg.enum names

let topk_cmd =
  let metric =
    Arg.(
      value
      & opt
          (metric_conv
             [
               ("symdiff", Api.Sym_diff);
               ("intersection", Api.Intersection);
               ("footrule", Api.Footrule);
               ("kendall", Api.Kendall);
             ])
          Api.Sym_diff
      & info [ "metric" ] ~doc:"Distance metric: symdiff, intersection, footrule or kendall.")
  in
  let run input k metric median seed jobs stats metrics trace =
    let pool = setup_pool ~trace ~metrics jobs in
    let code =
      handle (fun () ->
        let db = load Consensus_textio.Formats.load_db input in
        let rng = Consensus_util.Prng.create ~seed () in
        match Api.run ~pool ~rng db (Api.Topk (k, metric, flavor_of_median median)) with
        | Api.Topk_answer { keys; expected } ->
            Printf.printf "answer: [%s]\n" (pp_answer keys);
            List.iter
              (fun (name, v) ->
                Printf.printf "E[d_%s]%s = %.6f\n" name
                  (String.make (12 - String.length name) ' ')
                  v)
              expected
        | _ -> assert false)
    in
    report ~stats ~metrics ~trace pool;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "topk" ~doc:"Consensus top-k answer of a probabilistic relation.")
    Term.(
      const run $ input $ k_arg $ metric $ median_flag $ seed_arg $ jobs_arg
      $ stats_flag $ metrics_arg $ trace_arg)

(* ---- world ---- *)

let world_cmd =
  let metric =
    Arg.(
      value
      & opt
          (metric_conv [ ("symdiff", Api.Set_sym_diff); ("jaccard", Api.Set_jaccard) ])
          Api.Set_sym_diff
      & info [ "metric" ] ~doc:"Distance metric: symdiff or jaccard.")
  in
  let run input metric median jobs stats metrics trace =
    let pool = setup_pool ~trace ~metrics jobs in
    let code =
      handle (fun () ->
        let db = load Consensus_textio.Formats.load_db input in
        match Api.run ~pool db (Api.World (metric, flavor_of_median median)) with
        | Api.World_answer { leaves; expected } ->
            Printf.printf "world: {%s}\n" (pp_world db leaves);
            List.iter
              (fun (name, v) -> Printf.printf "E[d_%s] = %.6f\n" name v)
              expected
        | _ -> assert false)
    in
    report ~stats ~metrics ~trace pool;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "world" ~doc:"Consensus world of a probabilistic relation.")
    Term.(
      const run $ input $ metric $ median_flag $ jobs_arg $ stats_flag
      $ metrics_arg $ trace_arg)

(* ---- aggregate ---- *)

let aggregate_cmd =
  let run input median jobs stats metrics trace =
    let pool = setup_pool ~trace ~metrics jobs in
    let code =
      handle (fun () ->
        let probs = load Consensus_textio.Formats.load_matrix input in
        match Api.run ~pool (Db.independent []) (Api.Aggregate (probs, flavor_of_median median)) with
        | Api.Aggregate_answer { counts; expected } ->
            let d = List.assoc "sq_dist" expected in
            if median then begin
              Printf.printf "median counts: [%s]\n"
                (Array.to_list counts
                |> List.map (Printf.sprintf "%.0f")
                |> String.concat "; ");
              Printf.printf "E[d] = %.6f\n" d
            end
            else begin
              Printf.printf "mean counts: [%s]\n"
                (Array.to_list counts
                |> List.map (Printf.sprintf "%.4f")
                |> String.concat "; ");
              Printf.printf "E[d] = %.6f (variance floor)\n" d
            end
        | _ -> assert false)
    in
    report ~stats ~metrics ~trace pool;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "aggregate" ~doc:"Consensus group-by count answer (squared L2 distance).")
    Term.(
      const run $ input $ median_flag $ jobs_arg $ stats_flag $ metrics_arg
      $ trace_arg)

(* ---- cluster ---- *)

let cluster_cmd =
  let trials =
    Arg.(value & opt int 8 & info [ "trials" ] ~doc:"Pivot restarts.")
  in
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"N"
          ~doc:"Also score the clusterings induced by N sampled worlds.")
  in
  let run input trials samples seed jobs stats metrics trace =
    let pool = setup_pool ~trace ~metrics jobs in
    let code =
      handle (fun () ->
        let db = load Consensus_textio.Formats.load_db input in
        let rng = Consensus_util.Prng.create ~seed () in
        match Api.run ~pool ~rng db (Api.Cluster { trials; samples }) with
        | Api.Cluster_answer { labels; expected } ->
            let keys = Db.keys db in
            let groups = Hashtbl.create 16 in
            Array.iteri
              (fun i l ->
                Hashtbl.replace groups l
                  (keys.(i) :: Option.value (Hashtbl.find_opt groups l) ~default:[]))
              labels;
            Hashtbl.fold (fun l members acc -> (l, List.rev members) :: acc) groups []
            |> List.sort compare
            |> List.iter (fun (l, members) ->
                   Printf.printf "cluster %d: {%s}\n" l
                     (List.map string_of_int members |> String.concat "; "));
            Printf.printf "E[disagreements] = %.6f\n" (List.assoc "disagreements" expected)
        | _ -> assert false)
    in
    report ~stats ~metrics ~trace pool;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Consensus clustering by the uncertain value attribute.")
    Term.(
      const run $ input $ trials $ samples $ seed_arg $ jobs_arg $ stats_flag
      $ metrics_arg $ trace_arg)

(* ---- rank (full rankings) ---- *)

let rank_cmd =
  let metric =
    Arg.(
      value
      & opt
          (metric_conv [ ("footrule", Api.Rank_footrule); ("kendall", Api.Rank_kendall) ])
          Api.Rank_footrule
      & info [ "metric" ] ~doc:"Distance metric: footrule or kendall.")
  in
  let run input metric seed jobs stats metrics trace =
    let pool = setup_pool ~trace ~metrics jobs in
    let code =
      handle (fun () ->
        let db = load Consensus_textio.Formats.load_db input in
        let rng = Consensus_util.Prng.create ~seed () in
        match Api.run ~pool ~rng db (Api.Rank metric) with
        | Api.Rank_answer { keys; expected } ->
            Printf.printf "ranking: [%s]\n" (pp_answer keys);
            Printf.printf "E[d] = %.6f\n" (snd (List.hd expected))
        | _ -> assert false)
    in
    report ~stats ~metrics ~trace pool;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "rank" ~doc:"Consensus complete ranking of all keys.")
    Term.(
      const run $ input $ metric $ seed_arg $ jobs_arg $ stats_flag
      $ metrics_arg $ trace_arg)

(* ---- batch ---- *)

(* One unified stdout printer for query answers: the per-family layouts of
   the single-query commands.  Shared by [batch] and [explain]. *)
let print_answer db answer =
  match answer with
  | Api.World_answer { leaves; expected } ->
      Printf.printf "world: {%s}\n" (pp_world db leaves);
      List.iter (fun (name, v) -> Printf.printf "E[d_%s] = %.6f\n" name v) expected
  | Api.Topk_answer { keys; expected } | Api.Rank_answer { keys; expected } ->
      Printf.printf "answer: [%s]\n" (pp_answer keys);
      List.iter (fun (name, v) -> Printf.printf "E[d_%s] = %.6f\n" name v) expected
  | Api.Aggregate_answer { counts; expected } ->
      Printf.printf "counts: [%s]\n"
        (Array.to_list counts |> List.map (Printf.sprintf "%.4f") |> String.concat "; ");
      List.iter (fun (name, v) -> Printf.printf "E[d_%s] = %.6f\n" name v) expected
  | Api.Cluster_answer { labels; expected } ->
      Printf.printf "labels: [%s]\n" (pp_answer labels);
      List.iter (fun (name, v) -> Printf.printf "E[%s] = %.6f\n" name v) expected

let print_batch_answer db idx query answer =
  Printf.printf "query %d: %s\n" idx (Api.query_name query);
  print_answer db answer;
  print_newline ()

let batch_cmd =
  let batch_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Query file: one query per line ($(b,world), $(b,topk), \
             $(b,rank) or $(b,cluster) followed by key=value options; see \
             docs/CACHING.md).  All queries run against the one database \
             given with $(b,-i).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the shared probability cache.  Batch mode enables it \
             by default so repeated sub-computations (rank tables, pairwise \
             matrices) are reused across queries; answers are bit-identical \
             either way.")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MB" ~doc:"Cache capacity in MiB.")
  in
  let run input batch_file no_cache cache_mb seed jobs stats metrics trace
      listen listen_hold =
    let pool = setup_pool ~trace ~metrics jobs in
    if cache_mb <= 0 then begin
      Printf.eprintf "consensus: option '--cache-mb': value must be > 0 (got %d)\n" cache_mb;
      exit 124
    end;
    if not no_cache then begin
      Api.Cache.set_capacity_bytes (cache_mb * 1024 * 1024);
      Api.Cache.set_enabled true
    end;
    let server = start_listener listen in
    let code =
      handle (fun () ->
        let db = load Consensus_textio.Formats.load_db input in
        let contents =
          load
            (fun path ->
              let ic = open_in path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic)))
            batch_file
        in
        let queries =
          match Query_text.parse_string contents with
          | Ok qs -> qs
          | Error msg ->
              Printf.eprintf "consensus: %s: %s\n" batch_file msg;
              raise (Exit_code 2)
        in
        List.iteri
          (fun i q ->
            (* Per-query deterministic rng: query i's answer is independent
               of the queries before it (and of the cache state). *)
            let rng = Consensus_util.Prng.create ~seed:(seed + i) () in
            print_batch_answer db (i + 1) q (Api.run ~pool ~rng db q))
          queries;
        if not no_cache then begin
          let s = Api.Cache.stats () in
          Printf.eprintf
            "cache: %d hits, %d misses, %d evictions, %d entries, %d bytes\n"
            s.Api.Cache.hits s.Api.Cache.misses s.Api.Cache.evictions
            s.Api.Cache.entries s.Api.Cache.bytes
        end)
    in
    report ~stats ~metrics ~trace pool;
    finish_listener ~hold:listen_hold server;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run many queries over one parsed database, sharing the \
          probability cache across them.")
    Term.(
      const run $ input $ batch_file $ no_cache $ cache_mb $ seed_arg
      $ jobs_arg $ stats_flag $ metrics_arg $ trace_arg $ listen_arg
      $ listen_hold_flag)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let module Campaign = Consensus_oracle.Campaign in
  let module Fuzz = Consensus_oracle.Fuzz in
  let module Lfuzz = Consensus_oracle.Lineage_fuzz in
  let iters_arg =
    Arg.(
      value & opt int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Fuzz iterations per family.")
  in
  let max_leaves_arg =
    Arg.(
      value & opt int 12
      & info [ "max-leaves" ] ~docv:"N"
          ~doc:"Upper bound on generated tree sizes (leaves).")
  in
  let family_arg =
    Arg.(
      value
      & opt_all
          (Arg.enum
             (List.map (fun f -> (Fuzz.family_name f, `Core f)) Fuzz.all_families
             @ [ ("lineage", `Lineage) ]))
          []
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Family to fuzz ($(b,world), $(b,topk), $(b,rank), \
             $(b,aggregate), $(b,cluster) or $(b,lineage) — the \
             lineage-inference differential layer); repeatable.  Default: \
             all six.")
  in
  let readonce_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("on", true); ("off", false) ]) true
      & info [ "readonce" ] ~docv:"on|off"
          ~doc:
            "Ablation knob for the $(b,lineage) family: $(b,on) (default) \
             cross-checks the read-once fast path against Shannon \
             expansion; $(b,off) fuzzes the baseline routes only.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Regression corpus directory: shrunk discrepancies are promoted \
             into it, and $(b,--replay) re-checks every case in it.")
  in
  let replay_flag =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Replay the corpus directory instead of fuzzing (requires \
             $(b,--corpus)).")
  in
  let run seed iters max_leaves families corpus replay readonce jobs stats
      metrics trace listen listen_hold =
    let pool = setup_pool ~trace ~metrics jobs in
    if iters < 0 then begin
      Printf.eprintf "consensus: option '--iters': value must be >= 0 (got %d)\n" iters;
      exit 124
    end;
    if max_leaves <= 0 then begin
      Printf.eprintf
        "consensus: option '--max-leaves': value must be > 0 (got %d)\n" max_leaves;
      exit 124
    end;
    if replay && corpus = None then begin
      Printf.eprintf "consensus: --replay requires --corpus DIR\n";
      exit 124
    end;
    let server = start_listener listen in
    let code =
      Pool.with_pool ~jobs:1 @@ fun pool1 ->
      handle (fun () ->
        if replay then begin
          let dir = Option.get corpus in
          (* Every family's cases share the directory, told apart by their
             file-name prefix; a malformed case file is an input error. *)
          let replay_family family = load (fun dir -> Campaign.replay family ~dir) dir in
          let cases = replay_family (Fuzz.family ~pool ~pool1) in
          let verdicts = cases @ replay_family (Lfuzz.family ~readonce) in
          if verdicts = [] then begin
            Printf.eprintf
              "consensus: %s: no corpus cases (case-*.txt or lcase-*.txt)\n" dir;
            raise (Exit_code 2)
          end;
          let failures =
            List.filter_map
              (fun (file, (v : Campaign.verdict)) ->
                Option.map
                  (fun (check, detail) -> Printf.sprintf "FAIL %s: %s: %s" file check detail)
                  v.failure)
              verdicts
          in
          List.iter print_endline failures;
          Printf.printf "replayed %d corpus cases, %d failures\n"
            (List.length verdicts) (List.length failures);
          if failures <> [] then raise (Exit_code 1)
        end
        else begin
          let families =
            if families = [] then List.map (fun f -> `Core f) Fuzz.all_families @ [ `Lineage ]
            else families
          in
          let core_families =
            List.filter_map (function `Core f -> Some f | `Lineage -> None) families
          in
          let lineage = List.mem `Lineage families in
          let cases = ref 0 and checks = ref 0 and bad = ref 0 in
          (* One printer for every campaign's discrepancies and counts. *)
          let print describe (report : _ Campaign.report) =
            List.iter
              (fun (d : _ Campaign.discrepancy) ->
                Printf.printf "DISCREPANCY (%s) %s: %s\n" (describe d.case) d.check
                  d.detail;
                Printf.printf "  shrunk to (%s) in %d steps%s\n" (describe d.shrunk)
                  d.shrink_steps
                  (match d.path with
                  | None -> ""
                  | Some p -> Printf.sprintf "; saved to %s" p))
              report.discrepancies;
            cases := !cases + report.cases;
            checks := !checks + report.total_checks;
            bad := !bad + List.length report.discrepancies
          in
          if core_families <> [] then
            print Fuzz.describe
              (Fuzz.run ~pool ~pool1
                 { Fuzz.seed; iters; max_leaves; families = core_families; corpus_dir = corpus });
          if lineage then
            print Lfuzz.describe
              (Lfuzz.run { Lfuzz.seed; iters; readonce; corpus_dir = corpus });
          Printf.printf "fuzz: %d cases (families: %s), %d checks, %d discrepancies\n"
            !cases
            (String.concat ","
               (List.map Fuzz.family_name core_families @ if lineage then [ "lineage" ] else []))
            !checks !bad;
          if !bad > 0 then raise (Exit_code 1)
        end)
    in
    report ~stats ~metrics ~trace pool;
    finish_listener ~hold:listen_hold server;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: cross-check the optimized algorithms \
          against the brute-force possible-worlds oracle and metamorphic \
          rewrites.")
    Term.(
      const run $ seed_arg $ iters_arg $ max_leaves_arg $ family_arg
      $ corpus_arg $ replay_flag $ readonce_arg $ jobs_arg $ stats_flag
      $ metrics_arg $ trace_arg $ listen_arg $ listen_hold_flag)

(* ---- explain ---- *)

let explain_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "The query to explain, in the batch-file line syntax (e.g. \
             'topk k=8 metric=kendall'); additionally 'aggregate \
             [flavor=mean|median]' reads its matrix from $(b,-i).")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Profile format on stderr: $(b,text) or $(b,json).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Hotspot rows shown in the profile.")
  in
  let cache_flag =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Enable the shared probability cache, so the profile shows \
             per-family hit/miss attribution.")
  in
  let run input query_line format top cache seed jobs =
    let pool = setup_pool jobs in
    (* explain IS the observability: recording (GC deltas included) is
       unconditional here. *)
    Obs.set_enabled true;
    if cache then Api.Cache.set_enabled true;
    let code =
      handle (fun () ->
          (* The QUERY argument is the shared wire syntax (lib/core/
             query_text); an [aggregate] line reads its matrix from -i
             instead of the shared database. *)
          let bad_query msg =
            Printf.eprintf "consensus: query %S: %s\n" query_line msg;
            raise (Exit_code 2)
          in
          let proto =
            match Query_text.parse_proto_line query_line with
            | Ok (Some p) -> p
            | Ok None -> bad_query "empty query"
            | Error msg -> bad_query msg
          in
          let db, query =
            match proto with
            | Query_text.Db_query q -> (load Consensus_textio.Formats.load_db input, q)
            | Query_text.Aggregate_query flavor ->
                ( Db.independent [],
                  Api.Aggregate
                    (load Consensus_textio.Formats.load_matrix input, flavor) )
          in
          let rng = Consensus_util.Prng.create ~seed () in
          (* Profile the evaluation only, not input parsing. *)
          Obs.reset ();
          let answer = Api.run ~pool ~rng db query in
          print_answer db answer;
          let profile = Report.capture () in
          prerr_string
            (match format with
            | `Text -> Report.to_text ~top profile
            | `Json -> Report.to_json ~top profile ^ "\n"))
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run one query and print its profile: per-stage self time, GC \
          allocation deltas, parallel efficiency and cache attribution.")
    Term.(
      const run $ input $ query_arg $ format_arg $ top_arg $ cache_flag
      $ seed_arg $ jobs_arg)

(* ---- maxsat ---- *)

let maxsat_cmd =
  let run input =
    let code =
      handle (fun () ->
          let num_vars, clauses = load Consensus_textio.Formats.load_cnf input in
          let inst = Consensus_pdb.Maxsat.make ~num_vars ~clauses in
          let assign, opt = Consensus_pdb.Maxsat.solve_exact inst in
          Printf.printf "median world size = MAX-2-SAT optimum = %d / %d clauses\n"
            opt (Array.length clauses);
          Printf.printf "assignment: %s\n"
            (Array.to_list assign
            |> List.mapi (fun i b -> Printf.sprintf "x%d=%b" (i + 1) b)
            |> String.concat " "))
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "maxsat"
       ~doc:"Median world of the §4.1 SPJ gadget: solve the encoded MAX-2-SAT instance.")
    Term.(const run $ input)

(* ---- serve ---- *)

(* Usage errors (malformed flags and specs) exit 124 like every other
   numeric-validation failure of this CLI; a db file that does not parse or
   cannot be read is a clean input error (exit 2). *)
let serve_cmd =
  let db_args =
    Arg.(
      value & opt_all string []
      & info [ "db" ] ~docv:"NAME=FILE"
          ~doc:
            "Load $(b,FILE) as the resident database $(b,NAME) (repeatable; \
             at least one required).  Clients select it with the $(b,db=) \
             query parameter.")
  in
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen port (0 picks an ephemeral port, printed on stderr).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int Consensus_serve.Daemon.default_config.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Requests evaluated concurrently (scheduler worker domains, \
             each running its request's kernels inline; default: the \
             recommended domain count of this host).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admitted requests allowed to wait beyond the in-flight ones; \
             further requests are rejected with HTTP 429.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; requests exceeding it fail with \
             HTTP 504.  Clients override per request with $(b,deadline_ms=).")
  in
  let max_connections_arg =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent HTTP connection threads.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the shared probability cache (enabled by default so \
             repeated queries against the resident databases reuse \
             intermediates).")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Capture every request whose wall time reaches $(docv) \
             milliseconds into the slow-query ring ($(b,GET /debug/slow)) \
             with its explain profile (default: no capture).")
  in
  let log_level_arg =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum structured-log level: $(b,debug), $(b,info), \
             $(b,warn) or $(b,error).")
  in
  let access_log_arg =
    Arg.(
      value & opt bool true
      & info [ "access-log" ] ~docv:"BOOL"
          ~doc:
            "Emit one JSON access-log event per request (route, family, \
             status, queue-wait/run time, cache traffic).")
  in
  let usage_error fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "consensus: %s\n" msg;
        exit 124)
      fmt
  in
  let parse_db_spec spec =
    match String.index_opt spec '=' with
    | Some i when i > 0 && i < String.length spec - 1 ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
    | _ -> usage_error "option '--db': expected NAME=FILE (got '%s')" spec
  in
  let run db_specs port host max_inflight max_queue deadline_ms
      max_connections no_cache slow_ms log_level access_log =
    if db_specs = [] then
      usage_error "option '--db': at least one NAME=FILE database is required";
    if port < 0 || port > 65535 then
      usage_error "option '--port': value must be in 0..65535 (got %d)" port;
    if max_inflight < 1 then
      usage_error "option '--max-inflight': value must be >= 1 (got %d)"
        max_inflight;
    if max_queue < 0 then
      usage_error "option '--max-queue': value must be >= 0 (got %d)" max_queue;
    (match deadline_ms with
    | Some ms when ms <= 0 ->
        usage_error "option '--deadline-ms': value must be > 0 (got %d)" ms
    | _ -> ());
    if max_connections < 1 then
      usage_error "option '--max-connections': value must be >= 1 (got %d)"
        max_connections;
    (match slow_ms with
    | Some ms when ms < 0 ->
        usage_error "option '--slow-ms': value must be >= 0 (got %d)" ms
    | _ -> ());
    let log_level =
      match Consensus_obs.Log.level_of_string log_level with
      | Some l -> l
      | None ->
          usage_error
            "option '--log-level': expected debug, info, warn or error (got \
             '%s')"
            log_level
    in
    let specs = List.map parse_db_spec db_specs in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (name, _) ->
        if Hashtbl.mem seen name then
          usage_error "option '--db': duplicate database name '%s'" name;
        Hashtbl.add seen name ())
      specs;
    let code =
      handle (fun () ->
          let dbs =
            List.map
              (fun (name, file) ->
                match Consensus_textio.Formats.load_db file with
                | db -> (name, db)
                | exception Sys_error msg ->
                    Printf.eprintf "consensus: --db %s: %s\n" name msg;
                    raise (Exit_code 2)
                | exception Failure msg ->
                    Printf.eprintf "consensus: --db %s=%s: %s\n" name file msg;
                    raise (Exit_code 2))
              specs
          in
          let config =
            {
              Consensus_serve.Daemon.host;
              port;
              dbs;
              max_inflight;
              max_queue;
              default_deadline =
                Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms;
              max_connections;
              cache = not no_cache;
              slow_threshold =
                (match slow_ms with
                | None -> infinity
                | Some ms -> float_of_int ms /. 1000.);
              slow_capacity =
                Consensus_serve.Daemon.default_config.slow_capacity;
              access_log;
              log_level;
            }
          in
          let daemon =
            match Consensus_serve.Daemon.start config with
            | d -> d
            | exception Unix.Unix_error (err, _, _) ->
                Printf.eprintf "consensus: cannot bind %s:%d: %s\n" host port
                  (Unix.error_message err);
                raise (Exit_code 1)
          in
          (* The runtime-events consumer attributes GC pauses to requests
             (the access log's gc_pause_ms) and feeds the gc_pause_seconds
             series. *)
          Consensus_obs.Runtime.start ();
          Printf.eprintf "listening on %s:%d\n%!" host
            (Consensus_serve.Daemon.port daemon);
          (* Serve until a client POSTs/GETs /quit (the CI handshake) or the
             process is signalled. *)
          Consensus_serve.Daemon.wait_quit daemon;
          Consensus_serve.Daemon.stop daemon;
          Consensus_obs.Runtime.stop ())
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the consensus query daemon: resident databases served over \
          HTTP ($(b,POST /query), $(b,POST /batch), $(b,GET /metrics), \
          $(b,/healthz), $(b,/trace), $(b,/dbs)) with admission control, \
          bounded queueing and per-request deadlines.")
    Term.(
      const run $ db_args $ port_arg $ host_arg $ max_inflight_arg
      $ max_queue_arg $ deadline_arg $ max_connections_arg $ no_cache
      $ slow_ms_arg $ log_level_arg $ access_log_arg)

(* ---- demo ---- *)

let demo_cmd =
  let n = Arg.(value & opt int 30 & info [ "n" ] ~doc:"Number of keys.") in
  let run n k seed jobs =
    let pool = setup_pool jobs in
    let code =
      handle (fun () ->
        let rng = Consensus_util.Prng.create ~seed () in
        let db = Consensus_workload.Gen.bid_db rng n in
        Printf.printf "random BID database: %d keys, %d alternatives\n"
          (Db.num_keys db) (Db.num_alts db);
        let ctx = Topk_consensus.make_ctx ~pool db ~k in
        Printf.printf "consensus mean top-%d (symdiff):   [%s]\n" k
          (pp_answer (Topk_consensus.mean_sym_diff ctx));
        Printf.printf "consensus median top-%d (symdiff): [%s]\n" k
          (pp_answer (Topk_consensus.median_sym_diff ctx));
        Printf.printf "consensus mean top-%d (footrule):  [%s]\n" k
          (pp_answer (Topk_consensus.mean_footrule ctx));
        Printf.printf "mean world: {%s}\n"
          (pp_world db (Set_consensus.mean_sym_diff db));
        Printf.printf "median world: {%s}\n"
          (pp_world db (Set_consensus.median_sym_diff db)))
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run all consensus algorithms on a random database.")
    Term.(const run $ n $ k_arg $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "consensus" ~version:"1.0.0"
      ~doc:"Consensus answers for queries over probabilistic databases (PODS'09)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topk_cmd;
            world_cmd;
            rank_cmd;
            aggregate_cmd;
            cluster_cmd;
            batch_cmd;
            explain_cmd;
            fuzz_cmd;
            serve_cmd;
            maxsat_cmd;
            demo_cmd;
          ]))
