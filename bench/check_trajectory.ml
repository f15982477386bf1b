(* Guards the performance trajectory recorded in the committed BENCH_*.json
   files.  Each experiment's headline metrics have a pinned expectation
   here; a regeneration that regresses a tracked metric by more than its
   tolerance fails the @quickbench alias with a readable diff, so a
   session cannot silently commit a slower bench file.  Improvements (and
   anything within tolerance) pass — the expectations are a floor, not a
   lock, and should be re-pinned when a tracked metric genuinely moves.

   Dependency-free on purpose (its own RFC 8259-subset parser): the check
   must keep working even when the bench or obs layers are the thing
   being broken.

   Usage: check_trajectory FILE.json...
   Files whose basename has no expectations are parse-checked only;
   missing files are skipped with a note (the quickbench sandbox may not
   stage every committed bench file). *)

let failures = ref 0

(* ---------- minimal JSON parser ---------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let error msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then error "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if !pos + 4 > n then error "truncated \\u escape";
            pos := !pos + 4;
            Buffer.add_char buf '?'
        | _ -> error "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> error (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, value) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, value) :: acc))
            | _ -> error "expected , or }"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (value :: acc))
            | _ -> error "expected , or ]"
          in
          items []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  v

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
  | Field f :: rest, Obj fields -> (
      match List.assoc_opt f fields with
      | Some v -> lookup rest v
      | None -> None)
  | Index i :: rest, List items -> (
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
  match lookup tracked.path doc with
  | Some (Num measured) ->
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
  if not (Sys.file_exists path) then
    Printf.printf "skip %s: not present in this sandbox\n" (basename path)
  else
    match parse (read_file path) with
    | exception Parse_error msg ->
        incr failures;
        Printf.printf "FAIL %s: JSON parse error: %s\n" (basename path) msg
    | doc -> (
        match List.assoc_opt (basename path) expectations with
        | Some tracked -> List.iter (check_metric path doc) tracked
        | None -> (
            (* No pinned numbers: still insist the file is a bench document
               (BENCH_ENGINE.json is keyed by stage, not experiment). *)
            match (lookup schema_key doc, doc) with
            | Some (Str _), _ | None, Obj (_ :: _) ->
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
  if !failures > 0 then begin
    Printf.printf "trajectory check FAILED: %d metric(s) regressed\n"
      !failures;
    exit 1
  end
  else print_endline "trajectory check ok"
