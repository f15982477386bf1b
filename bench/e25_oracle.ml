(* E25 — brute-force oracle cost vs the optimized algorithms (lib/oracle).
   The differential fuzzer cross-checks every [Api.run] answer against an
   exhaustive possible-worlds argmin; this experiment quantifies the gap
   that makes the optimized paths worth having — oracle wall clock grows
   exponentially in the leaf count while the closed forms stay flat — and
   measures the fuzz throughput (checked cases per second) that sizes the
   @fuzz tier.  Results go to BENCH_ORACLE.json. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact
module Campaign = Consensus_oracle.Campaign
module Fuzz = Consensus_oracle.Fuzz
module Json = Consensus_util.Json

let query = Api.World (Api.Set_sym_diff, Api.Mean)

let run () =
  Harness.header "E25: brute-force oracle vs optimized consensus";
  (* Tuple-independent databases: n leaves → exactly 2^n possible worlds,
     so the oracle column is a clean exponential while Api.run stays
     linear-ish.  n = 12 is the largest the World/Mean argmin budget
     (2^n candidates × 2^n worlds) accepts. *)
  let leaves_grid = if !Harness.quick then [ 6; 8; 10 ] else [ 6; 8; 10; 12 ] in
  let table =
    Harness.Tables.create
      ~title:"world symdiff mean: Api.run vs possible-world argmin"
      [
        ("leaves", Harness.Tables.Right);
        ("worlds", Harness.Tables.Right);
        ("api (ms)", Harness.Tables.Right);
        ("oracle (ms)", Harness.Tables.Right);
        ("slowdown", Harness.Tables.Right);
      ]
  in
  let rows =
    List.map
      (fun leaves ->
        let g = Prng.create ~seed:(2500 + leaves) () in
        let db = Gen.independent_db g leaves in
        let api_t =
          Harness.time_only (fun () -> ignore (Api.run db query))
        in
        let t = Exact.prepare db in
        let oracle_t = Harness.time_only (fun () -> ignore (Exact.solve t query)) in
        let worlds = Exact.num_worlds t in
        Harness.Tables.add_row table
          [
            string_of_int leaves;
            string_of_int worlds;
            Harness.ms api_t;
            Harness.ms oracle_t;
            Printf.sprintf "%.0fx" (oracle_t /. api_t);
          ];
        (leaves, worlds, api_t, oracle_t))
      leaves_grid
  in
  Harness.Tables.print table;
  (* Fuzz throughput: one short all-family campaign, checks per second.
     This is the number that sizes the @fuzz tier in test/fuzz/dune. *)
  let iters = if !Harness.quick then 40 else 200 in
  let report = ref { Campaign.cases = 0; total_checks = 0; discrepancies = [] } in
  let campaign_t =
    Harness.time_only (fun () ->
        report :=
          Fuzz.run { Fuzz.default_config with seed = 2525; iters; max_leaves = 10 })
  in
  let r = !report in
  Harness.note "fuzz: %d cases, %d checks in %.2f s (%.0f checks/s), %d discrepancies"
    r.Campaign.cases r.Campaign.total_checks campaign_t
    (float_of_int r.Campaign.total_checks /. campaign_t)
    (List.length r.Campaign.discrepancies);
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e25_oracle");
        ("query", Json.Str "world metric=symdiff flavor=mean");
        ( "grid",
          Json.List
            (List.map
               (fun (leaves, worlds, api_t, oracle_t) ->
                 Json.Obj
                   [
                     ("leaves", Json.Int leaves);
                     ("worlds", Json.Int worlds);
                     ("api_s", Json.Float api_t);
                     ("oracle_s", Json.Float oracle_t);
                     ("slowdown", Json.Float (oracle_t /. api_t));
                   ])
               rows) );
        ( "fuzz",
          Json.Obj
            [
              ("iters_per_family", Json.Int iters);
              ("cases", Json.Int r.Campaign.cases);
              ("checks", Json.Int r.Campaign.total_checks);
              ("wall_s", Json.Float campaign_t);
              ( "checks_per_s",
                Json.Float (float_of_int r.Campaign.total_checks /. campaign_t) );
              ("discrepancies", Json.Int (List.length r.Campaign.discrepancies));
            ] );
      ]
  in
  let oc = open_out "BENCH_ORACLE.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "oracle sweep written to BENCH_ORACLE.json"
