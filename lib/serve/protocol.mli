(** Wire protocol of the serve daemon: request-body parsing and JSON
    response rendering.

    Request bodies are the shared query wire syntax
    ({!Consensus.Query_text}); responses are JSON built with the
    project's own emitter ({!Consensus_util.Json}).  This module is pure —
    no sockets, no scheduler — so the protocol is testable in isolation
    and the daemon stays a thin routing layer. *)

open Consensus_anxor

val parse_query_body : string -> (Consensus.Api.query, string) result
(** Parse a [POST /query] body: one wire-syntax query line (blank lines
    and [#] comments allowed around it).  An [aggregate] line takes its
    matrix from the following lines, one whitespace-separated row each —
    the same out-of-band convention as the oracle corpus.  Errors are
    human-readable one-liners (mapped to HTTP 400). *)

val parse_batch_body : string -> (Consensus.Api.query list, string) result
(** Parse a [POST /batch] body: any number of database-backed query lines
    ({!Consensus.Query_text.parse_string}).  [aggregate] lines are an
    error here — a batch shares the resident database, and carries no
    matrix.  Empty batches are an error. *)

val answer_json : Db.t -> Consensus.Api.answer -> Consensus_util.Json.t
(** One answer as JSON: [{"family": ..., <payload>, "expected": {...}}]
    where the payload field is per family — [world] carries
    [{"leaves": [{"key", "value"}...]}] (alternatives resolved against
    [db]), [topk]/[rank] carry ["keys"], [aggregate] ["counts"], [cluster]
    ["labels"]. *)

val result_json :
  ?request:string ->
  ?profile:Consensus_util.Json.t ->
  db_name:string ->
  query:Consensus.Api.query ->
  elapsed:float ->
  db:Db.t ->
  (Consensus.Api.answer, Consensus.Api.Error.t) result ->
  Consensus_util.Json.t
(** One evaluated request as JSON:
    [{"db", "query" (canonical wire line), "elapsed_ms", "answer"}] on
    [Ok], [{"db", "query", "elapsed_ms", "error", "reason"}] on [Error]
    (where ["error"] is the machine-readable kind: ["unsupported"],
    ["deadline_exceeded"] or ["invalid_input"]).  [request] prepends the
    trace-context request id as ["request"]; [profile] appends an inline
    explain profile ({!Consensus_obs.Report.to_obj}) as ["profile"]. *)

val error_body : string -> string
(** [{"error": msg}] plus a trailing newline — the uniform error payload
    for non-200 responses. *)

val status_of_error : Consensus.Api.Error.t -> int
(** HTTP status for a per-query evaluation error: [Invalid_input] is 400,
    [Unsupported] 422, [Deadline_exceeded] 504. *)

val status_of_reject : Scheduler.reject -> int
(** HTTP status for an admission reject: [Queue_full] 429, [Overloaded]
    and [Shutting_down] 503. *)
