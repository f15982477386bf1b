type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  body : string;
}

type response = { status : int; content_type : string; body : string }

let response ?(content_type = "text/plain") ~status body =
  { status; content_type; body }

(* One live client connection.  [pending] holds bytes received but not yet
   consumed by a request — with pipelining, the start of the next one.
   [idle] (guarded by [t.conn_lock]) is set while the handler waits for a
   request to begin, so {!stop} may shut the socket down. *)
type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
  mutable idle : bool;
}

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  read_timeout : float; (* SO_RCVTIMEO: bounds a stalled read and an idle wait *)
  handler : (request -> response option) option;
  stopping : bool Atomic.t;
  quit_lock : Mutex.t;
  quit_cond : Condition.t;
  mutable quit_requested : bool;
  mutable accept_domain : unit Domain.t option;
  (* Connection accounting: [slots] caps the open connections, idle
     kept-alive ones included (an accept blocks on it, pushing overload
     back into the listen backlog); the list + condition let [stop] end
     idle waits and drain the rest. *)
  slots : Semaphore.Counting.t;
  conn_lock : Mutex.t;
  conn_cond : Condition.t;
  mutable conns : conn list;
}

let status_text = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 408 -> "408 Request Timeout"
  | 413 -> "413 Content Too Large"
  | 422 -> "422 Unprocessable Content"
  | 429 -> "429 Too Many Requests"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | 504 -> "504 Gateway Timeout"
  | n -> string_of_int n

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  (try
     while !sent < n do
       sent := !sent + Unix.write_substring fd s !sent (n - !sent)
     done
   with Unix.Unix_error _ -> ())

let respond fd ~keep_alive { status; content_type; body } =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        %s\r\n\r\n%s"
       (status_text status) content_type (String.length body)
       (if keep_alive then "keep-alive" else "close")
       body)

(* ---------- request parsing ---------- *)

let max_header_bytes = 64 * 1024
let max_request_line_bytes = 8 * 1024
let max_body_bytes = 8 * 1024 * 1024

let find_terminator s =
  let n = String.length s in
  let rec go i =
    if i + 4 > n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let pct_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
        match (hex_value s.[!i + 1], hex_value s.[!i + 2]) with
        | Some h, Some l ->
            Buffer.add_char buf (Char.chr ((h * 16) + l));
            i := !i + 2
        | _ -> Buffer.add_char buf '%')
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query qs =
  String.split_on_char '&' qs
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( pct_decode (String.sub kv 0 i),
                   pct_decode (String.sub kv (i + 1) (String.length kv - i - 1))
                 )
           | None -> Some (pct_decode kv, ""))

(* The trimmed values of every header named [name] (lower-case), in order,
   from the raw header block. *)
let header_values headers name =
  String.split_on_char '\n' headers
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | Some i
           when String.lowercase_ascii (String.trim (String.sub line 0 i)) = name
           ->
             Some
               (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* Duplicate Content-Length headers are rejected outright (a classic
   request-smuggling vector: two framings of one body), as are non-numeric
   or negative values — the old behaviour silently took the first parseable
   header and treated garbage as "no body". *)
let content_length headers =
  match header_values headers "content-length" with
  | [] -> Ok None
  | [ v ] -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok (Some n)
      | _ ->
          Error
            (response ~status:400
               (Printf.sprintf "bad content-length: %S\n" v)))
  | _ :: _ :: _ ->
      Error (response ~status:400 "conflicting content-length headers\n")

type read_outcome =
  | Request of request * bool (* the request, and whether to keep alive *)
  | Malformed of response
  | Disconnected

type fill = Filled | Eof | Timed_out

(* One [read] into the connection's pending bytes. *)
let rec fill conn =
  match Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) with
  | 0 -> Eof
  | n ->
      Buffer.add_subbytes conn.pending conn.chunk 0 n;
      Filled
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Timed_out
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill conn
  | exception Unix.Unix_error _ -> Eof

(* HTTP/1.1 persists unless the client says [close]; HTTP/1.0 only when it
   asks for [keep-alive]; anything else closes. *)
let keep_alive ~version headers =
  let tokens =
    header_values headers "connection"
    |> List.concat_map (String.split_on_char ',')
    |> List.map (fun s -> String.lowercase_ascii (String.trim s))
  in
  (not (List.mem "close" tokens))
  && (version = "HTTP/1.1"
     || (version = "HTTP/1.0" && List.mem "keep-alive" tokens))

(* Read one full request — header block, then [Content-Length] body bytes —
   from the connection's pending bytes, reading more as needed.  Bytes past
   the request stay pending for the next call.  The socket's receive
   timeout bounds how long a wedged client can hold its handler thread. *)
let read_request conn =
  let buf = conn.pending in
  let timed_out = ref false in
  let read_more () =
    match fill conn with
    | Filled -> true
    | Eof -> false
    | Timed_out ->
        timed_out := true;
        false
  in
  let rec fill_headers () =
    match find_terminator (Buffer.contents buf) with
    | Some i -> Some i
    | None ->
        if Buffer.length buf > max_header_bytes then None
        else if read_more () then fill_headers ()
        else None
  in
  match fill_headers () with
  | None ->
      if Buffer.length buf = 0 then Disconnected
      else if !timed_out then
        Malformed (response ~status:408 "request timeout\n")
      else Malformed (response ~status:400 "bad request\n")
  | Some header_end -> (
      let raw = Buffer.contents buf in
      let head = String.sub raw 0 header_end in
      let first_line, headers =
        match String.index_opt head '\r' with
        | Some i ->
            ( String.sub head 0 i,
              String.sub head (min (i + 2) (String.length head))
                (String.length head - min (i + 2) (String.length head)) )
        | None -> (head, "")
      in
      let body_start = header_end + 4 in
      if String.length first_line > max_request_line_bytes then
        Malformed (response ~status:400 "request line too long\n")
      else if header_values headers "transfer-encoding" <> [] then
        (* Only Content-Length framing is understood; a chunked body left
           on a persistent socket would be parsed as the next request. *)
        Malformed (response ~status:400 "transfer-encoding not supported\n")
      else
      match content_length headers with
      | Error resp -> Malformed resp
      | Ok cl ->
      let want = Option.value cl ~default:0 in
      if want > max_body_bytes then
        Malformed (response ~status:413 "content too large\n")
      else begin
        let rec fill_body () =
          if Buffer.length buf - body_start >= want then true
          else if read_more () then fill_body ()
          else false
        in
        if not (fill_body ()) then
          Malformed
            (response
               ~status:(if !timed_out then 408 else 400)
               "incomplete body\n")
        else
          let raw = Buffer.contents buf in
          let body = String.sub raw body_start want in
          let consumed = body_start + want in
          Buffer.clear buf;
          Buffer.add_substring buf raw consumed (String.length raw - consumed);
          match String.split_on_char ' ' first_line with
          | meth :: target :: rest ->
              let path, query =
                match String.index_opt target '?' with
                | Some i ->
                    ( String.sub target 0 i,
                      parse_query
                        (String.sub target (i + 1) (String.length target - i - 1))
                    )
                | None -> (target, [])
              in
              let version = match rest with v :: _ -> v | [] -> "" in
              Request
                ( { meth; path; query; body },
                  keep_alive ~version headers )
          | _ -> Malformed (response ~status:400 "bad request\n")
      end)

(* ---------- routing ---------- *)

let json_body obj = Json.to_string obj ^ "\n"

let version = "1.0.0"

let healthz extra =
  response ~content_type:"application/json" ~status:200
    (json_body
       (Json.Obj
          ([
             ("status", Json.Str "ok");
             ("version", Json.Str version);
             ("uptime_s", Json.Float (Unix.gettimeofday () -. Obs.start_time));
           ]
          @ extra)))

(* Parameter errors answer 400 with a JSON body, so a programmatic scraper
   gets a machine-readable error. *)
let bad_param name expected got =
  let msg = Printf.sprintf "parameter %s: expected %s, got %S" name expected got in
  response ~content_type:"application/json" ~status:400
    (json_body (Json.Obj [ ("error", Json.Str msg) ]))

(* Built-in observability routes, served after the custom [handler] has
   passed.  [`Quit] releases {!wait_quit}. *)
let default_route req =
  match (req.meth, req.path) with
  | "GET", "/metrics" ->
      `Respond
        (response
           ~content_type:"text/plain; version=0.0.4; charset=utf-8"
           ~status:200 (Obs.metrics_text ()))
  | "GET", "/healthz" -> `Respond (healthz [])
  | "GET", "/trace" -> (
      (* ?limit=N bounds the export to the N newest spans so scraping a
         long-lived process cannot OOM the client (or the server building
         the response). *)
      let limit =
        match List.assoc_opt "limit" req.query with
        | None -> Ok None
        | Some v -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok (Some n)
            | _ -> Error v)
      in
      match limit with
      | Error v ->
          `Respond (bad_param "limit" "a non-negative integer" v)
      | Ok limit ->
          `Respond
            (response ~content_type:"application/json" ~status:200
               (Obs.trace_json ?limit () ^ "\n")))
  | "GET", "/quit" -> `Quit
  | _, ("/metrics" | "/healthz" | "/trace" | "/quit") ->
      `Respond (response ~status:405 "method not allowed\n")
  | _ -> `Respond (response ~status:404 "not found\n")

let note_quit t =
  Mutex.lock t.quit_lock;
  t.quit_requested <- true;
  Condition.broadcast t.quit_cond;
  Mutex.unlock t.quit_lock

(* The response to a well-formed request, and whether it was [/quit]. *)
let dispatch t req =
  let custom =
    match t.handler with
    | None -> None
    | Some h -> (
        try h req
        with e ->
          Some
            (response ~status:500
               (Printf.sprintf "internal error: %s\n" (Printexc.to_string e))))
  in
  match custom with
  | Some resp -> (resp, false)
  | None -> (
      match default_route req with
      | `Respond resp -> (resp, false)
      | `Quit -> (response ~status:200 "bye\n", true))

(* Wait for the next request to begin.  Pending bytes (a pipelined
   request) begin it at once; otherwise the connection sits idle, where
   {!stop} may shut its socket down, until bytes arrive, the client closes
   or the receive timeout passes.  False when the connection should end. *)
let await_request t conn =
  Buffer.length conn.pending > 0
  || begin
       Mutex.lock t.conn_lock;
       let go = not (Atomic.get t.stopping) in
       conn.idle <- go;
       Mutex.unlock t.conn_lock;
       go
       &&
       let r = fill conn in
       Mutex.lock t.conn_lock;
       conn.idle <- false;
       Mutex.unlock t.conn_lock;
       r = Filled
     end

(* Serve requests in order until one asks to close, is malformed or
   [/quit], or the server stops. *)
let handle_connection t conn =
  Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO t.read_timeout;
  let rec loop () =
    if await_request t conn then
      match read_request conn with
      | Disconnected -> ()
      | Malformed resp -> respond conn.fd ~keep_alive:false resp
      | Request (req, keep_alive) ->
          let resp, quit = dispatch t req in
          let keep_alive =
            keep_alive && (not quit) && not (Atomic.get t.stopping)
          in
          respond conn.fd ~keep_alive resp;
          if quit then note_quit t;
          if keep_alive then loop ()
  in
  loop ()

(* One systhread per connection, all living on the accept domain: handlers
   either block on I/O / condition variables (releasing the domain lock) or
   hand real work to engine worker domains, so a single domain multiplexes
   many in-flight connections.  [slots] caps the open connections. *)
let spawn_connection t fd =
  Semaphore.Counting.acquire t.slots;
  let conn =
    { fd; pending = Buffer.create 1024; chunk = Bytes.create 4096; idle = false }
  in
  Mutex.lock t.conn_lock;
  t.conns <- conn :: t.conns;
  Mutex.unlock t.conn_lock;
  let finish () =
    (* Unregister before closing, so [stop] never shuts down a descriptor
       number the system has already reused. *)
    Mutex.lock t.conn_lock;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    if t.conns = [] then Condition.broadcast t.conn_cond;
    Mutex.unlock t.conn_lock;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Semaphore.Counting.release t.slots
  in
  match
    Thread.create
      (fun () ->
        Fun.protect ~finally:finish (fun () ->
            try handle_connection t conn with _ -> ()))
      ()
  with
  | (_ : Thread.t) -> ()
  | exception _ ->
      (* Thread creation failed (resource exhaustion): shed the connection
         rather than kill the accept loop. *)
      respond fd ~keep_alive:false (response ~status:503 "overloaded\n");
      finish ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.sock with
    | client, _ ->
        if Atomic.get t.stopping then (
          try Unix.close client with Unix.Unix_error _ -> ())
        else spawn_connection t client;
        if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error _ -> () (* listener closed by [stop] *)
  in
  loop ()

let start ?(host = "127.0.0.1") ?(backlog = 128) ?(max_connections = 64)
    ?(read_timeout = 10.) ?handler ~port () =
  if max_connections < 1 then
    invalid_arg "Expose.start: max_connections must be >= 1";
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock backlog
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      sock;
      bound_port;
      handler;
      stopping = Atomic.make false;
      quit_lock = Mutex.create ();
      quit_cond = Condition.create ();
      quit_requested = false;
      accept_domain = None;
      slots = Semaphore.Counting.make max_connections;
      conn_lock = Mutex.create ();
      conn_cond = Condition.create ();
      conns = [];
      read_timeout;
    }
  in
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let port t = t.bound_port

let connections t =
  Mutex.lock t.conn_lock;
  let n = List.length t.conns in
  Mutex.unlock t.conn_lock;
  n

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* End idle waits first: an idle kept-alive connection would otherwise
       hold its thread, and its accept slot (the accept loop may be blocked
       on one), until the receive timeout.  Shutting down only the receive
       side makes the pending read return end-of-stream.  Busy connections
       finish their request and answer [Connection: close]. *)
    Mutex.lock t.conn_lock;
    List.iter
      (fun c ->
        if c.idle then
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
      t.conns;
    Mutex.unlock t.conn_lock;
    (* Wake a blocked [accept] with a throwaway connection, then close the
       listener; the loop exits on either signal. *)
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.bound_port))
        with Unix.Unix_error _ -> ());
       Unix.close s
     with Unix.Unix_error _ -> ());
    Option.iter Domain.join t.accept_domain;
    t.accept_domain <- None;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (* Drain in-flight requests (bounded by the receive timeout and handler
       completion) before declaring the server gone. *)
    Mutex.lock t.conn_lock;
    while t.conns <> [] do
      Condition.wait t.conn_cond t.conn_lock
    done;
    Mutex.unlock t.conn_lock;
    (* A [stop] must release anyone still blocked in [wait_quit]. *)
    note_quit t
  end

let wait_quit t =
  Mutex.lock t.quit_lock;
  while not t.quit_requested do
    Condition.wait t.quit_cond t.quit_lock
  done;
  Mutex.unlock t.quit_lock
