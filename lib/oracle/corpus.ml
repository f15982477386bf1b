open Consensus_anxor
module Api = Consensus.Api
module Query_text = Consensus.Query_text
module Formats = Consensus_textio.Formats

type case = { query : Api.query; db : Db.t }

let placeholder_db = Db.independent [ (0, 0., 0.5) ]

let to_string { query; db } =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "query %s\n"
       (Query_text.print_proto (Query_text.proto_of_query query)));
  (match query with
  | Api.Aggregate (probs, _) ->
      Array.iter
        (fun row ->
          Array.to_list row |> List.map Campaign.float_repr |> String.concat " "
          |> Buffer.add_string buf;
          Buffer.add_char buf '\n')
        probs
  | _ ->
      Buffer.add_string buf (Sexp_io.db_to_string db);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let significant l =
    let l = String.trim l in
    l <> "" && l.[0] <> ';' && l.[0] <> '#'
  in
  match List.partition significant lines with
  | [], _ -> Error "empty case"
  | qline :: rest, _ -> (
      let qline = String.trim qline in
      match String.index_opt qline ' ' with
      | Some i when String.sub qline 0 i = "query" -> (
          let spec = String.sub qline (i + 1) (String.length qline - i - 1) in
          (* The query line is the shared wire syntax; the payload after it
             depends on the family — an aggregate matrix or a database. *)
          match Query_text.parse_proto_line spec with
          | Error e -> Error e
          | Ok None -> Error "blank query line"
          | Ok (Some (Query_text.Aggregate_query flavor)) -> (
              match Formats.matrix_of_lines rest with
              | probs ->
                  Ok { query = Api.Aggregate (probs, flavor); db = placeholder_db }
              | exception Failure e -> Error e)
          | Ok (Some (Query_text.Db_query query)) -> (
              match Sexp_io.db_of_string (String.concat "\n" rest) with
              | Ok db -> Ok { query; db }
              | Error e -> Error e))
      | _ -> Error "expected a 'query ...' first line")

let codec = { Campaign.prefix = "case-"; to_string; of_string }
