(* Guards the performance trajectory recorded in the committed BENCH_*.json
   files.  Each experiment's headline metrics have a pinned expectation
   here; a regeneration that regresses a tracked metric by more than its
   tolerance fails the @quickbench alias with a readable diff, so a
   session cannot silently commit a slower bench file.  Improvements (and
   anything within tolerance) pass — the expectations are a floor, not a
   lock, and should be re-pinned when a tracked metric genuinely moves.

   Depends on nothing but [consensus_util] (for its JSON parser), on
   purpose: the check must keep working even when the bench or obs layers
   are the thing being broken.

   Usage: check_trajectory FILE.json...
   Files whose basename has no expectations are parse-checked only.  Every
   file with pinned expectations must be given and present: a pinned file
   that is missing fails the check rather than passing unchecked. *)

module Json = Consensus_util.Json

let failures = ref 0

(* ---------- expectations ---------- *)

(* A dotted path into the document: fields and [i] array indices. *)
type step = Field of string | Index of int

let path_to_string steps =
  List.map
    (function Field f -> "." ^ f | Index i -> Printf.sprintf "[%d]" i)
    steps
  |> String.concat ""

let rec lookup steps j =
  match (steps, j) with
  | [], _ -> Some j
  | Field f :: rest, _ -> Option.bind (Json.member f j) (lookup rest)
  | Index i :: rest, Json.List items -> (
      match List.nth_opt items i with Some v -> lookup rest v | None -> None)
  | _ -> None

type direction = Higher_better | Lower_better

type tracked = {
  path : step list;
  expected : float;
  direction : direction;
  (* Allowed fractional regression in the bad direction before the check
     fails; improvements always pass.  0.25 unless the metric's
     session-to-session noise demands more headroom. *)
  tolerance : float;
}

let t ?(tolerance = 0.25) direction path expected =
  { path; expected; direction; tolerance }

(* Headline metrics per committed bench file, pinned from the regenerated
   runs of 2026-08.  Throughputs carry the default 25% band (fleet noise
   is ~±10%); nanosecond-scale probe costs get a wider band because a
   single timing run swings ±35% on a loaded box — the probe checks exist
   to catch "someone put real work behind the disabled path", which shows
   up as x10, not +30%. *)
let expectations =
  [
    ( "BENCH_REQTRACE.json",
      [
        t Higher_better
          [ Field "tracing_on"; Field "throughput_rps" ]
          2600.9;
        t ~tolerance:1.5 Lower_better [ Field "disabled_probe_ns" ] 4.7;
      ] );
    ( "BENCH_MONITOR.json",
      [
        t Higher_better
          [ Field "monitor_on"; Field "throughput_rps" ]
          2574.1;
        t ~tolerance:1.5 Lower_better [ Field "disabled_probe_ns" ] 3.5;
        t ~tolerance:1.5 Lower_better [ Field "runtime_gate_ns" ] 2.1;
        t Higher_better
          [ Field "tail_attribution"; Field "nonzero_gc_pause_ms" ]
          1.0;
      ] );
    ( "BENCH_SERVE.json",
      [
        t Higher_better
          [ Field "saturation"; Field "throughput_rps" ]
          2322.3;
      ] );
    ( "BENCH_ARENA.json",
      [
        (* The dense rank-table sweep at n = 10^6 must not allocate: its
           minor-heap words are a size-independent constant (60), where any
           per-key or per-alternative allocation would add millions. *)
        t Lower_better
          [ Field "sizes"; Index 2; Field "rank_table_dense_minor_words" ]
          60.;
      ] );
    ( "BENCH_READONCE.json",
      [
        t Higher_better
          [
            Field "product"; Field "widths"; Index 6;
            Field "speedup_vs_shannon";
          ]
          6.2;
      ] );
  ]

(* Minimal shape requirement for files without pinned numbers: the
   document must at least carry its experiment tag. *)
let schema_key = [ Field "experiment" ]

let basename path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_metric path doc tracked =
  let where = path_to_string tracked.path in
  match Option.map Json.to_float (lookup tracked.path doc) with
  | Some (Some measured) ->
      let bad, limit =
        match tracked.direction with
        | Higher_better ->
            let limit = tracked.expected *. (1. -. tracked.tolerance) in
            (measured < limit, limit)
        | Lower_better ->
            let limit = tracked.expected *. (1. +. tracked.tolerance) in
            (measured > limit, limit)
      in
      let delta_pct =
        (measured -. tracked.expected) /. tracked.expected *. 100.
      in
      if bad then begin
        incr failures;
        Printf.printf "FAIL %s%s\n" (basename path) where;
        Printf.printf "     expected %s %.4g (pinned %.4g, tolerance %.0f%%)\n"
          (match tracked.direction with
          | Higher_better -> ">="
          | Lower_better -> "<=")
          limit tracked.expected
          (tracked.tolerance *. 100.);
        Printf.printf "     measured %.4g  (%+.1f%% vs pinned)\n" measured
          delta_pct;
        Printf.printf
          "     -> a committed bench regression; investigate or re-pin the \
           expectation in bench/check_trajectory.ml with a justification\n"
      end
      else
        Printf.printf "ok   %s%s = %.4g (pinned %.4g, %+.1f%%)\n"
          (basename path) where measured tracked.expected delta_pct
  | Some _ ->
      incr failures;
      Printf.printf "FAIL %s%s: not a number\n" (basename path) where
  | None ->
      incr failures;
      Printf.printf "FAIL %s%s: path missing from document\n" (basename path)
        where

let check_file path =
  if not (Sys.file_exists path) then begin
    incr failures;
    Printf.printf "FAIL %s: file not found\n" (basename path)
  end
  else
    match Json.of_string (read_file path) with
    | Error msg ->
        incr failures;
        Printf.printf "FAIL %s: JSON parse error: %s\n" (basename path) msg
    | Ok doc -> (
        match List.assoc_opt (basename path) expectations with
        | Some tracked -> List.iter (check_metric path doc) tracked
        | None -> (
            (* No pinned numbers: still insist the file is a bench document
               (BENCH_ENGINE.json is keyed by stage, not experiment). *)
            match (lookup schema_key doc, doc) with
            | Some (Json.Str _), _ | None, Json.Obj (_ :: _) ->
                Printf.printf "ok   %s: parses (no pinned metrics)\n"
                  (basename path)
            | _ ->
                incr failures;
                Printf.printf "FAIL %s: not a bench document\n" (basename path)))

let () =
  let files = Array.to_list Sys.argv |> List.tl in
  if files = [] then begin
    prerr_endline "usage: check_trajectory BENCH_FILE.json...";
    exit 2
  end;
  List.iter check_file files;
  let given = List.map basename files in
  List.iter
    (fun (pinned, _) ->
      if not (List.mem pinned given) then begin
        incr failures;
        Printf.printf
          "FAIL %s: pinned but not given (generate and commit it)\n" pinned
      end)
    expectations;
  if !failures > 0 then begin
    Printf.printf "trajectory check FAILED: %d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "trajectory check ok"
