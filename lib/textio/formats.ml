open Consensus_anxor

let read_lines path =
  let ic = if path = "-" then stdin else open_in path in
  Fun.protect
    ~finally:(fun () -> if path <> "-" then close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let data_lines lines =
  lines
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#' && l.[0] <> ';')

let fail_line path n msg = failwith (Printf.sprintf "%s:%d: %s" path n msg)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_alt path n tok =
  match String.split_on_char ':' tok with
  | [ p; v ] -> (
      match (float_of_string_opt p, float_of_string_opt v) with
      | Some _, Some v when Float.is_nan v ->
          (* NaN has no place in the score order: the rank sweep and the
             arena walk would rank it differently. *)
          fail_line path n (Printf.sprintf "score must be a number in %S" tok)
      | Some p, Some v -> (p, v)
      | _ -> fail_line path n (Printf.sprintf "bad alternative %S" tok))
  | _ -> fail_line path n (Printf.sprintf "expected prob:value, got %S" tok)

let db_of_lines ?(path = "<input>") lines =
  let significant = data_lines lines in
  let is_tree =
    match significant with (_, l) :: _ -> l.[0] = '(' | [] -> false
  in
  if is_tree then
    match Sexp_io.db_of_string (String.concat "\n" lines) with
    | Ok db -> db
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  else begin
    let blocks =
      List.map
        (fun (n, line) ->
          match split_ws line with
          | key :: (_ :: _ as alts) -> (
              match int_of_string_opt key with
              | Some key -> (key, List.map (parse_alt path n) alts)
              | None -> fail_line path n (Printf.sprintf "bad key %S" key))
          | _ -> fail_line path n "expected: <key> <prob>:<value> ...")
        significant
    in
    if blocks = [] then failwith (Printf.sprintf "%s: empty database" path);
    Db.bid blocks
  end

(* Sniff the first significant byte of a real file: '(' means the sexp tree
   format, which then streams straight into the arena in bounded memory
   ([Sexp_io.db_of_channel]) instead of slurping the file into a line list.
   stdin and the BID line format keep the line-based path. *)
let sniff_tree path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan in_comment =
        match input_char ic with
        | c ->
            if in_comment then scan (c <> '\n')
            else if c = ';' || c = '#' then scan true
            else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then scan false
            else Some c
        | exception End_of_file -> None
      in
      scan false)

let load_db path =
  if path <> "-" && sniff_tree path = Some '(' then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match Sexp_io.db_of_channel ic with
        | Ok db -> db
        | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))
  end
  else db_of_lines ~path (read_lines path)

let matrix_of_lines ?(path = "<input>") lines =
  let rows =
    List.map
      (fun (n, line) ->
        split_ws line
        |> List.map (fun tok ->
               match float_of_string_opt tok with
               | Some p -> p
               | None -> fail_line path n (Printf.sprintf "bad probability %S" tok))
        |> Array.of_list)
      (data_lines lines)
  in
  Array.of_list rows

let load_matrix path = matrix_of_lines ~path (read_lines path)

let cnf_of_lines ?(path = "<input>") lines =
  let clauses = ref [] and max_var = ref 0 in
  List.iter
    (fun (n, line) ->
      match split_ws line with
      | "p" :: _ | "c" :: _ -> ()
      | toks ->
          let lits =
            List.filter_map
              (fun tok ->
                match int_of_string_opt tok with
                | Some 0 -> None
                | Some v ->
                    max_var := max !max_var (abs v);
                    Some (abs v - 1, v > 0)
                | None -> fail_line path n (Printf.sprintf "bad literal %S" tok))
              toks
          in
          if lits <> [] then clauses := lits :: !clauses)
    (data_lines lines);
  (!max_var, Array.of_list (List.rev !clauses))

let load_cnf path = cnf_of_lines ~path (read_lines path)
