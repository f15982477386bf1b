(* Shared infrastructure for the experiment harness. *)

let quick = ref false
(* --quick shrinks every experiment's sizes (CI-friendly). *)

let sizes ~quick_list ~full_list = if !quick then quick_list else full_list

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let time_only f = snd (time_it f)

let ms t = Printf.sprintf "%.2f" (t *. 1000.)

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

module Tables = Consensus_util.Tables
module Pool = Consensus_engine.Pool
module Metrics = Consensus_engine.Metrics
module Obs = Consensus_obs.Obs

(* ---- observability dimension ----

   --trace FILE turns the obs subsystem on for the whole run and writes the
   combined Chrome trace at the end; --obs-metrics prints the histogram /
   counter exposition once all experiments have run. *)

let trace_path : string option ref = ref None
let obs_metrics = ref false

let finish_obs () =
  (match !trace_path with
  | None -> ()
  | Some path ->
      Obs.write_trace path;
      Printf.printf "\ntrace written to %s (%d spans)\n" path
        (List.length (Obs.spans ())));
  if !obs_metrics then begin
    header "observability metrics";
    print_string (Obs.metrics_text ())
  end

(* ---- engine jobs dimension ----

   Experiments with parallel stages sweep the pool size over [jobs_grid]
   (settable with --jobs) and label each run; the per-stage engine metrics of
   every labelled run are dumped as one JSON object at the end. *)

let jobs_grid = ref [ 1; 2; 4 ]

let metric_records : (string * string) list ref = ref []

let with_pool_metrics ~label ~jobs f =
  Pool.with_pool ~jobs (fun pool ->
      let result = f pool in
      let key = Printf.sprintf "%s/jobs=%d" label jobs in
      let key =
        if List.mem_assoc key !metric_records then
          Printf.sprintf "%s#%d" key (List.length !metric_records)
        else key
      in
      metric_records := (key, Metrics.to_json (Pool.metrics pool)) :: !metric_records;
      result)

let write_engine_json path =
  match List.rev !metric_records with
  | [] -> ()
  | records ->
      let oc = open_out path in
      output_string oc "{\n";
      let last = List.length records - 1 in
      List.iteri
        (fun i (name, json) ->
          Printf.fprintf oc "  %S: %s%s\n" name json (if i = last then "" else ","))
        records;
      output_string oc "}\n";
      close_out oc;
      Printf.printf "\nper-stage engine metrics written to %s (%d runs)\n" path
        (List.length records)

(* Bechamel timing runner: one Test.make per experiment table, executed
   together at the end of the run. *)
let bechamel_tests : Bechamel.Test.t list ref = ref []

let register_bench ~name f =
  bechamel_tests :=
    Bechamel.Test.make ~name (Bechamel.Staged.stage f) :: !bechamel_tests

let run_bechamel () =
  let open Bechamel in
  match List.rev !bechamel_tests with
  | [] -> ()
  | tests ->
      header "Bechamel timing benches (one per experiment table)";
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg =
        Benchmark.cfg ~limit:200
          ~quota:(Time.second (if !quick then 0.25 else 0.5))
          ~kde:None ()
      in
      let grouped = Test.make_grouped ~name:"consensus" tests in
      let raw = Benchmark.all cfg instances grouped in
      let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let table =
        Tables.create [ ("bench", Tables.Left); ("time/run", Tables.Right) ]
      in
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) res []
      |> List.sort compare
      |> List.iter (fun (name, ols) ->
             let human ns =
               if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
               else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
               else if ns > 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
               else Printf.sprintf "%.0f ns" ns
             in
             match Analyze.OLS.estimates ols with
             | Some [ est ] -> Tables.add_row table [ name; human est ]
             | _ -> Tables.add_row table [ name; "n/a" ]);
      Tables.print table
