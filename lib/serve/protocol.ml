open Consensus_anxor
module Api = Consensus.Api
module Query_text = Consensus.Query_text
module Json = Consensus_util.Json
module Formats = Consensus_textio.Formats

let significant l =
  let l = String.trim l in
  l <> "" && l.[0] <> '#'

let parse_query_body body =
  match String.split_on_char '\n' body |> List.filter significant with
  | [] -> Error "empty body: expected one query line"
  | qline :: rest -> (
      match Query_text.parse_proto_line qline with
      | Error e -> Error e
      | Ok None -> Error "empty query line"
      | Ok (Some (Query_text.Db_query q)) ->
          if rest = [] then Ok q
          else Error "unexpected content after the query line"
      | Ok (Some (Query_text.Aggregate_query flavor)) -> (
          if rest = [] then
            Error "aggregate query: expected matrix rows after the query line"
          else
            match Formats.matrix_of_lines rest with
            | probs -> Ok (Api.Aggregate (probs, flavor))
            | exception Failure e -> Error e))

let parse_batch_body body =
  match Query_text.parse_string body with
  | Error _ as e -> e
  | Ok [] -> Error "empty batch: expected at least one query line"
  | Ok _ as ok -> ok

(* ---------- rendering ---------- *)

let expected_json expected =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) expected)

let int_array_json a =
  Json.List (Array.to_list a |> List.map (fun k -> Json.Int k))

let answer_json db answer =
  let fields =
    match answer with
    | Api.World_answer { leaves; expected } ->
        [
          ("family", Json.Str "world");
          ( "leaves",
            Json.List
              (List.map
                 (fun l ->
                   let a = Db.alt db l in
                   Json.Obj
                     [
                       ("key", Json.Int a.Db.key); ("value", Json.Float a.Db.value);
                     ])
                 leaves) );
          ("expected", expected_json expected);
        ]
    | Api.Topk_answer { keys; expected } ->
        [
          ("family", Json.Str "topk");
          ("keys", int_array_json keys);
          ("expected", expected_json expected);
        ]
    | Api.Rank_answer { keys; expected } ->
        [
          ("family", Json.Str "rank");
          ("keys", int_array_json keys);
          ("expected", expected_json expected);
        ]
    | Api.Aggregate_answer { counts; expected } ->
        [
          ("family", Json.Str "aggregate");
          ( "counts",
            Json.List (Array.to_list counts |> List.map (fun c -> Json.Float c))
          );
          ("expected", expected_json expected);
        ]
    | Api.Cluster_answer { labels; expected } ->
        [
          ("family", Json.Str "cluster");
          ("labels", int_array_json labels);
          ("expected", expected_json expected);
        ]
  in
  Json.Obj fields

let error_kind = function
  | Api.Error.Unsupported _ -> "unsupported"
  | Api.Error.Deadline_exceeded -> "deadline_exceeded"
  | Api.Error.Invalid_input _ -> "invalid_input"

let result_json ?request ?profile ~db_name ~query ~elapsed ~db result =
  let base =
    (match request with
    | Some id -> [ ("request", Json.Str id) ]
    | None -> [])
    @ [
        ("db", Json.Str db_name);
        ( "query",
          Json.Str (Query_text.print_proto (Query_text.proto_of_query query)) );
        ("elapsed_ms", Json.Float (elapsed *. 1000.));
      ]
  in
  let tail =
    match profile with Some p -> [ ("profile", p) ] | None -> []
  in
  match result with
  | Ok answer -> Json.Obj (base @ [ ("answer", answer_json db answer) ] @ tail)
  | Error e ->
      Json.Obj
        (base
        @ [
            ("error", Json.Str (error_kind e));
            ("reason", Json.Str (Api.Error.to_string e));
          ]
        @ tail)

let error_body msg = Json.to_string (Json.Obj [ ("error", Json.Str msg) ]) ^ "\n"

let status_of_error = function
  | Api.Error.Invalid_input _ -> 400
  | Api.Error.Unsupported _ -> 422
  | Api.Error.Deadline_exceeded -> 504

let status_of_reject = function
  | Scheduler.Queue_full -> 429
  | Scheduler.Shutting_down -> 503
