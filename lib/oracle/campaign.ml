module Obs = Consensus_obs.Obs

(* ---------- verdicts ---------- *)

type verdict = { checks : int; failure : (string * string) option }

exception Fail of string * string

let checking body =
  let checks = ref 0 in
  let ensure name detail cond =
    incr checks;
    if not cond then raise (Fail (name, detail ()))
  in
  let failure =
    match body ensure with
    | () -> None
    | exception Fail (name, detail) -> Some (name, detail)
    | exception e -> Some ("exception", Printexc.to_string e)
  in
  { checks = !checks; failure }

(* ---------- families ---------- *)

type 'case codec = {
  prefix : string;
  to_string : 'case -> string;
  of_string : string -> ('case, string) result;
}

let float_repr x =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

type 'case family = {
  codec : 'case codec;
  check : 'case -> verdict;
  candidates : 'case -> 'case list;
}

(* ---------- observability ---------- *)

let cases_total = Obs.Counter.make ~help:"fuzz cases generated" "fuzz_cases_total"
let checks_total = Obs.Counter.make ~help:"fuzz invariant checks" "fuzz_checks_total"

let discrepancies_total =
  Obs.Counter.make ~help:"fuzz discrepancies found" "fuzz_discrepancies_total"

let shrink_steps_total =
  Obs.Counter.make ~help:"accepted shrink steps" "fuzz_shrink_steps_total"

let counted verdict =
  Obs.Counter.add checks_total verdict.checks;
  verdict

(* ---------- corpus files ---------- *)

let file_name codec case =
  Printf.sprintf "%s%s.txt" codec.prefix
    (String.sub (Digest.to_hex (Digest.string (codec.to_string case))) 0 12)

let save codec ~dir case =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (file_name codec case) in
  let oc = open_out path in
  output_string oc (codec.to_string case);
  close_out oc;
  path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load codec path =
  match codec.of_string (read_file path) with
  | Ok c -> Ok c
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | exception Sys_error e -> Error e

let load_dir codec dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:codec.prefix f && Filename.check_suffix f ".txt")
    |> List.sort compare
    |> List.map (fun f ->
           match load codec (Filename.concat dir f) with
           | Ok c -> (f, c)
           | Error e -> failwith e)

(* ---------- shrinking ---------- *)

let max_shrink_steps = 200

let shrink candidates still_fails case =
  let rec go case steps =
    if steps >= max_shrink_steps then (case, steps)
    else
      match List.find_opt still_fails (candidates case) with
      | Some smaller -> go smaller (steps + 1)
      | None -> (case, steps)
  in
  go case 0

(* ---------- campaigns ---------- *)

type 'case discrepancy = {
  case : 'case;
  check : string;
  detail : string;
  shrunk : 'case;
  shrink_steps : int;
  path : string option;
}

type 'case report = {
  cases : int;
  total_checks : int;
  discrepancies : 'case discrepancy list;
}

let run ?corpus_dir (family : _ family) ~iters generators =
  if iters < 0 then invalid_arg "Campaign.run: negative iteration count";
  let cases = ref 0 and total_checks = ref 0 and discrepancies = ref [] in
  List.iter
    (fun fresh ->
      for _ = 1 to iters do
        let case, { checks; failure } = fresh () in
        incr cases;
        Obs.Counter.incr cases_total;
        Obs.Counter.add checks_total checks;
        total_checks := !total_checks + checks;
        match failure with
        | None -> ()
        | Some (check, detail) ->
            Obs.Counter.incr discrepancies_total;
            let still_fails c = (counted (family.check c)).failure <> None in
            let shrunk, shrink_steps = shrink family.candidates still_fails case in
            Obs.Counter.add shrink_steps_total shrink_steps;
            let path = Option.map (fun dir -> save family.codec ~dir shrunk) corpus_dir in
            discrepancies :=
              { case; check; detail; shrunk; shrink_steps; path } :: !discrepancies
      done)
    generators;
  { cases = !cases; total_checks = !total_checks; discrepancies = List.rev !discrepancies }

let replay (family : _ family) ~dir =
  load_dir family.codec dir
  |> List.map (fun (file, case) -> (file, counted (family.check case)))
