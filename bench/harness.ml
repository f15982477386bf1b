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

(* Least-squares slope of log y on log n. *)
let slope points =
  let xs = List.map (fun (n, _) -> log (float_of_int n)) points
  and ys = List.map (fun (_, y) -> log y) points in
  let m = float_of_int (List.length xs) in
  let mx = List.fold_left ( +. ) 0. xs /. m
  and my = List.fold_left ( +. ) 0. ys /. m in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. xs ys
  and sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. xs in
  sxy /. sxx

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

module Tables = Consensus_util.Tables
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

(* ---- pinned bench files ----

   The committed BENCH_*.json files hold full-size measurements that
   bench/check_trajectory.ml pins, so only a full run rewrites them: a quick
   run's smaller sizes would replace the pinned figures. *)

let write_json path json =
  if !quick then note "quick mode: %s left as committed" path
  else begin
    let oc = open_out path in
    output_string oc (Consensus_util.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    note "written to %s" path
  end
