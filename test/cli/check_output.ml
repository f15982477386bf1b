(* Validates CLI observability output without external JSON dependencies.

   Modes:
     check_output trace FILE          Chrome trace_event JSON invariants
     check_output trace-lite FILE     same, without the layer-coverage check
                                      (for subcommands that exercise few layers)
     check_output metrics FILE        --metrics json invariants
     check_output fuzz OUT ERR        fuzz mode: the --metrics json dump
                                      mixed into ERR passes the metrics
                                      checks, and its fuzz counters match
                                      the summary line on OUT
     check_output stderr-report OUT ERR
                                      query answer on stdout, reports on stderr
     check_output batch OUT ERR       batch mode: answers on stdout, cache
                                      summary + hit/miss counters in the
                                      --metrics json dump on stderr
     check_output explain OUT ERR     explain mode: answer on stdout, text
                                      profile (self times, gc, parallel,
                                      cache, hotspots) on stderr
     check_output explain-json OUT ERR
                                      explain --format json: profile object
                                      parses with sane hotspot invariants
     check_output serve CLI DB BATCH  spawn `CLI batch --listen 0
                                      --listen-hold`, scrape /metrics,
                                      /healthz and /trace over a raw socket,
                                      then GET /quit and await a clean exit
     check_output serve-daemon CLI DB spawn `CLI serve --db main=DB --port 0`,
                                      POST /query (good, malformed, unknown
                                      db), scrape /metrics for the serve
                                      counters, then GET /quit and await a
                                      clean exit *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

module Json = Consensus_util.Json

(* Parse [contents] (named [what] in the failure message), or fail. *)
let parse what contents =
  match Json.of_string contents with
  | Ok j -> j
  | Error msg -> fail "%s: JSON parse error: %s" what msg

let parse_file path = parse path (read_file path)
let member = Json.member

let get_num path what v =
  match Option.bind v Json.to_float with
  | Some f -> f
  | None -> fail "%s: %s is not a number" path what

let get_str path what = function
  | Some (Json.Str s) -> s
  | _ -> fail "%s: %s is not a string" path what

(* ---------- trace mode *)

let check_trace_string ?(require_layers = []) path contents =
  let j =
    parse path contents
  in
  let events =
    match member "traceEvents" j with
    | Some (Json.List evs) -> evs
    | _ -> fail "%s: missing traceEvents array" path
  in
  if events = [] then fail "%s: trace has no events" path;
  let layers = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun ev ->
      let name = get_str path "event name" (member "name" ev) in
      let ts = get_num path "event ts" (member "ts" ev) in
      let dur = get_num path "event dur" (member "dur" ev) in
      let ph = get_str path "event ph" (member "ph" ev) in
      if ph <> "X" then fail "%s: event %s has phase %s, want X" path name ph;
      if dur < 0. then fail "%s: event %s has negative duration" path name;
      if ts < !last_ts then fail "%s: events not sorted by ts" path;
      last_ts := ts;
      match String.index_opt name '.' with
      | Some i -> Hashtbl.replace layers (String.sub name 0 i) ()
      | None -> Hashtbl.replace layers name ())
    events;
  let found = Hashtbl.fold (fun l () acc -> l :: acc) layers [] in
  List.iter
    (fun l ->
      if not (List.mem l found) then
        fail "%s: no spans from layer %s (found: %s)" path l
          (String.concat ", " (List.sort compare found)))
    require_layers;
  Printf.printf "trace ok: %d events across layers %s\n" (List.length events)
    (String.concat ", " (List.sort compare found))

let check_trace path =
  check_trace_string
    ~require_layers:[ "anxor"; "matching"; "core"; "engine" ]
    path (read_file path)

let check_trace_lite path = check_trace_string path (read_file path)

(* ---------- metrics mode *)

let check_metrics_json path j =
  let fields =
    match j with Json.Obj fs -> fs | _ -> fail "%s: metrics JSON is not an object" path
  in
  if fields = [] then fail "%s: no metrics exported" path;
  List.iter
    (fun (name, v) ->
      match get_str path (name ^ " type") (member "type" v) with
      | "counter" | "gauge" ->
          ignore (get_num path (name ^ " value") (member "value" v))
      | "histogram" ->
          let count = get_num path (name ^ " count") (member "count" v) in
          let buckets =
            match member "buckets" v with
            | Some (Json.List bs) -> bs
            | _ -> fail "%s: %s has no buckets" path name
          in
          let last = ref 0. in
          List.iter
            (fun b ->
              let c = get_num path (name ^ " bucket count") (member "count" b) in
              if c < !last then
                fail "%s: %s bucket counts are not cumulative" path name;
              last := c)
            buckets;
          (match List.rev buckets with
          | tail :: _ ->
              (match member "le" tail with
              | Some (Json.Str "+Inf") -> ()
              | _ -> fail "%s: %s last bucket is not +Inf" path name);
              if get_num path (name ^ " +Inf count") (member "count" tail)
                 <> count
              then fail "%s: %s +Inf bucket disagrees with count" path name
          | [] -> fail "%s: %s has empty buckets" path name)
      | t -> fail "%s: %s has unknown type %s" path name t)
    fields;
  Printf.printf "metrics ok: %d series\n" (List.length fields)

let check_metrics path = check_metrics_json path (parse_file path)

(* ---------- fuzz mode *)

(* Subcommands like fuzz interleave their own stderr reporting with the
   --metrics json dump; pick the dump out by its leading brace. *)
let metrics_line path =
  let json_line =
    read_file path |> String.split_on_char '\n'
    |> List.find_opt (fun l -> String.length l > 0 && l.[0] = '{')
  in
  match json_line with
  | None -> fail "%s: no metrics JSON object line" path
  | Some line -> parse path line

let counter path j name =
  match member name j with
  | None -> fail "%s: metrics JSON lacks %s" path name
  | Some v ->
      (match get_str path (name ^ " type") (member "type" v) with
      | "counter" -> ()
      | t -> fail "%s: %s has type %s, want counter" path name t);
      get_num path (name ^ " value") (member "value" v)

(* Every fuzz family counts into one set of fuzz_* counters, so on a clean
   run (no discrepancy, hence no shrink checks) the dump's case and check
   counts equal the summary line's. *)
let check_fuzz out_path err_path =
  let j = metrics_line err_path in
  check_metrics_json err_path j;
  let cases, checks =
    match
      String.split_on_char '\n' (read_file out_path)
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "fuzz: %d cases (families: %_s@), %d checks, 0 discrepancies"
               (fun cases checks -> (cases, checks)))
    with
    | Some counts -> counts
    | None -> fail "%s: no clean 'fuzz: N cases ...' summary line" out_path
  in
  let expect name n =
    let v = counter err_path j name in
    if v <> float_of_int n then
      fail "%s: %s = %g, but the summary line says %d" err_path name v n
  in
  expect "fuzz_cases_total" cases;
  expect "fuzz_checks_total" checks;
  Printf.printf "fuzz ok: %d cases and %d checks counted\n" cases checks

(* ---------- stderr-report mode *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let check_stderr_report out_path err_path =
  let out = read_file out_path and err = read_file err_path in
  if not (contains out "answer:") then
    fail "%s: stdout is missing the query answer" out_path;
  if contains out "engine stats" then
    fail "%s: engine stats leaked onto stdout" out_path;
  if contains out "# HELP" then
    fail "%s: metrics exposition leaked onto stdout" out_path;
  if not (contains err "engine stats") then
    fail "%s: stderr is missing the engine stats report" err_path;
  if not (contains err "# HELP") then
    fail "%s: stderr is missing the metrics exposition" err_path;
  print_endline "stderr report ok: answer on stdout, reports on stderr"

(* ---------- batch mode *)

let check_batch out_path err_path =
  let out = read_file out_path and err = read_file err_path in
  (* Every query answered, in order, and nothing but answers on stdout. *)
  if not (contains out "query 1:") then
    fail "%s: stdout is missing the first query header" out_path;
  if not (contains out "query 2:") then
    fail "%s: stdout is missing the second query header" out_path;
  if not (contains out "rank-kendall-mean") then
    fail "%s: stdout is missing the Kendall rank answer" out_path;
  if not (contains out "rank-footrule-mean") then
    fail "%s: stdout is missing the footrule rank answer" out_path;
  if not (contains out "cluster-mean") then
    fail "%s: stdout is missing the clustering answer" out_path;
  if contains out "cache:" then
    fail "%s: cache summary leaked onto stdout" out_path;
  if contains out "\"type\"" then
    fail "%s: metrics JSON leaked onto stdout" out_path;
  (* Cache summary line on stderr. *)
  if not (contains err "cache:") then
    fail "%s: stderr is missing the cache summary" err_path;
  (* The --metrics json object is the stderr line starting with '{'; the
     cache counters must be exported with hits and misses both nonzero
     (the batch file repeats a query, so the second run must hit). *)
  let j = metrics_line err_path in
  let hits = counter err_path j "cache_hits_total" in
  let misses = counter err_path j "cache_misses_total" in
  if hits <= 0. then fail "%s: cache_hits_total = %g, want > 0" err_path hits;
  if misses <= 0. then
    fail "%s: cache_misses_total = %g, want > 0" err_path misses;
  Printf.printf "batch ok: answers on stdout; cache hits=%g misses=%g\n" hits
    misses

(* ---------- explain modes *)

let check_explain out_path err_path =
  let out = read_file out_path and err = read_file err_path in
  if not (contains out "answer:" || contains out "world:"
          || contains out "labels:" || contains out "counts:")
  then fail "%s: stdout is missing the query answer" out_path;
  if contains out "profile:" then
    fail "%s: profile leaked onto stdout" out_path;
  List.iter
    (fun section ->
      if not (contains err section) then
        fail "%s: stderr profile is missing the %S section" err_path section)
    [ "profile:"; "gc:"; "parallel:"; "cache:"; "hotspots"; "self(ms)" ];
  print_endline "explain ok: answer on stdout, profile on stderr"

let check_explain_json out_path err_path =
  let out = read_file out_path and err = read_file err_path in
  if not (contains out "answer:" || contains out "world:"
          || contains out "labels:" || contains out "counts:")
  then fail "%s: stdout is missing the query answer" out_path;
  let json_line =
    String.split_on_char '\n' err
    |> List.find_opt (fun l -> String.length l > 0 && l.[0] = '{')
  in
  let j =
    match json_line with
    | None -> fail "%s: no profile JSON object on stderr" err_path
    | Some line -> (
        parse err_path line)
  in
  let wall = get_num err_path "wall_s" (member "wall_s" j) in
  if wall < 0. then fail "%s: wall_s is negative" err_path;
  (match member "gc" j with
  | Some (Json.Obj _) -> ()
  | _ -> fail "%s: profile has no gc object" err_path);
  (match member "parallelism" j with
  | Some (Json.Obj _) -> ()
  | _ -> fail "%s: profile has no parallelism object" err_path);
  let hotspots =
    match member "hotspots" j with
    | Some (Json.List rows) -> rows
    | _ -> fail "%s: profile has no hotspots array" err_path
  in
  if hotspots = [] then fail "%s: profile has no hotspot rows" err_path;
  List.iter
    (fun row ->
      let name = get_str err_path "hotspot name" (member "name" row) in
      let self = get_num err_path (name ^ " self_s") (member "self_s" row) in
      let total = get_num err_path (name ^ " total_s") (member "total_s" row) in
      if self < 0. then fail "%s: %s has negative self time" err_path name;
      if self > total +. 1e-9 then
        fail "%s: %s self time exceeds its total" err_path name;
      match member "gc" row with
      | Some (Json.Obj _) -> ()
      | _ -> fail "%s: hotspot %s has no gc object" err_path name)
    hotspots;
  Printf.printf "explain json ok: %d hotspot rows\n" (List.length hotspots)

(* ---------- serve mode *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ();
      Buffer.contents buf)

let split_response what resp =
  let sep = "\r\n\r\n" in
  let n = String.length resp in
  let rec find i =
    if i + 4 > n then fail "%s: response has no header terminator" what
    else if String.sub resp i 4 = sep then i
    else find (i + 1)
  in
  let i = find 0 in
  (String.sub resp 0 i, String.sub resp (i + 4) (n - i - 4))

let get_body what port path =
  let header, body = split_response what (http_get port path) in
  let status =
    match String.index_opt header '\r' with
    | Some i -> String.sub header 0 i
    | None -> header
  in
  if status <> "HTTP/1.1 200 OK" then
    fail "%s: status %S, want 200 OK" what status;
  body

(* Minimal Prometheus text-exposition validation: every non-comment line is
   "name[{labels}] value" with a float value; TYPE comments present. *)
let check_prometheus_text what body =
  if not (contains body "# TYPE") then
    fail "%s: exposition has no # TYPE comments" what;
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> fail "%s: metric line without value: %s" what line
           | Some i -> (
               let value =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               (* +Inf never appears as a value (only inside le labels). *)
               match float_of_string_opt value with
               | Some _ -> ()
               | None -> fail "%s: metric value not a float: %s" what line))

let check_serve cli db batch =
  (* Spawn the CLI with --listen 0 --listen-hold, answers to /dev/null, and
     read the bound port off the first stderr line. *)
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_read, err_write = Unix.pipe () in
  let pid =
    Unix.create_process cli
      [|
        cli; "batch"; "-i"; db; "--batch"; batch; "--jobs"; "2"; "--listen";
        "0"; "--listen-hold";
      |]
      Unix.stdin null err_write
  in
  Unix.close null;
  Unix.close err_write;
  let err_chan = Unix.in_channel_of_descr err_read in
  let first_line =
    try input_line err_chan with End_of_file -> fail "serve: CLI wrote no stderr"
  in
  let port =
    match String.rindex_opt first_line ':' with
    | Some i when String.length first_line > i + 1 ->
        (match
           int_of_string_opt
             (String.sub first_line (i + 1) (String.length first_line - i - 1))
         with
        | Some p -> p
        | None -> fail "serve: cannot parse port from %S" first_line)
    | _ -> fail "serve: expected 'listening on HOST:PORT', got %S" first_line
  in
  (* /healthz answers while the batch is still running (a JSON liveness
     object since the exposition server grew one). *)
  let health = get_body "serve /healthz" port "/healthz" in
  let hj =
    parse "serve: /healthz" health
  in
  (match member "status" hj with
  | Some (Json.Str "ok") -> ()
  | _ -> fail "serve: /healthz status is not ok: %s" (String.trim health));
  if get_num "serve /healthz" "uptime_s" (member "uptime_s" hj) < 0. then
    fail "serve: /healthz uptime is negative";
  (* The batch runs concurrently with our scrapes; poll /trace until the
     root api.run spans have landed, then validate the full bodies. *)
  let deadline = Unix.gettimeofday () +. 30. in
  let rec settle () =
    let trace = get_body "serve /trace" port "/trace" in
    if contains trace "api.run" then trace
    else if Unix.gettimeofday () > deadline then
      fail "serve: /trace never recorded an api.run span"
    else begin
      Unix.sleepf 0.05;
      settle ()
    end
  in
  let trace = settle () in
  check_trace_string "serve /trace" trace;
  let metrics = get_body "serve /metrics" port "/metrics" in
  check_prometheus_text "serve /metrics" metrics;
  (* Quit handshake: the CLI must finish reporting and exit cleanly. *)
  let bye = get_body "serve /quit" port "/quit" in
  if bye <> "bye\n" then fail "serve: /quit body %S, want bye" bye;
  (* Drain remaining stderr so the child never blocks on a full pipe. *)
  (try
     while true do
       ignore (input_line err_chan)
     done
   with End_of_file -> ());
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "serve: CLI exited with %d after /quit" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "serve: CLI killed by signal %d" n);
  print_endline "serve ok: /metrics, /healthz and /trace scraped; clean exit"

(* ---------- serve-daemon mode *)

let http_post port path body =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          path (String.length body) body
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ();
      Buffer.contents buf)

let status_and_body what resp =
  let header, body = split_response what resp in
  let status_line =
    match String.index_opt header '\r' with
    | Some i -> String.sub header 0 i
    | None -> header
  in
  match String.split_on_char ' ' status_line with
  | _ :: code :: _ -> (
      match int_of_string_opt code with
      | Some c -> (c, body)
      | None -> fail "%s: unparseable status line %S" what status_line)
  | _ -> fail "%s: unparseable status line %S" what status_line

let post_expect what port path body ~status =
  let got, resp_body = status_and_body what (http_post port path body) in
  if got <> status then
    fail "%s: status %d, want %d (body: %s)" what got status
      (String.trim resp_body);
  resp_body

(* Pull one metric value out of a Prometheus text exposition. *)
let metric_value what body name =
  let prefix = name ^ " " in
  let value =
    String.split_on_char '\n' body
    |> List.find_map (fun line ->
           if
             String.length line > String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
           then
             float_of_string_opt
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix))
           else None)
  in
  match value with
  | Some v -> v
  | None -> fail "%s: exposition has no %s sample" what name

let check_serve_daemon cli db =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_read, err_write = Unix.pipe () in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--db"; "main=" ^ db; "--port"; "0"; "--max-inflight";
        "2"; "--slow-ms"; "0"; "--access-log"; "false";
      |]
      Unix.stdin null err_write
  in
  Unix.close null;
  Unix.close err_write;
  let err_chan = Unix.in_channel_of_descr err_read in
  let first_line =
    try input_line err_chan
    with End_of_file -> fail "serve-daemon: CLI wrote no stderr"
  in
  let port =
    match String.rindex_opt first_line ':' with
    | Some i when String.length first_line > i + 1 -> (
        match
          int_of_string_opt
            (String.sub first_line (i + 1) (String.length first_line - i - 1))
        with
        | Some p -> p
        | None -> fail "serve-daemon: cannot parse port from %S" first_line)
    | _ ->
        fail "serve-daemon: expected 'listening on HOST:PORT', got %S"
          first_line
  in
  (* A well-formed query answers 200 with a JSON answer object carrying its
     trace-context request id. *)
  let answer =
    post_expect "serve-daemon /query" port "/query" "topk k=2 metric=footrule\n"
      ~status:200
  in
  if not (contains answer "\"answer\"") then
    fail "serve-daemon: /query response has no answer field: %s"
      (String.trim answer);
  if not (contains answer "\"request\"") then
    fail "serve-daemon: /query response has no request id: %s"
      (String.trim answer);
  (* /healthz is the daemon's own rich liveness payload: status, build
     version, uptime, scheduler load and the resident database names. *)
  let health = get_body "serve-daemon /healthz" port "/healthz" in
  let hj =
    parse "serve-daemon: /healthz" health
  in
  (match member "status" hj with
  | Some (Json.Str "ok") -> ()
  | _ -> fail "serve-daemon: /healthz status is not ok: %s" (String.trim health));
  if get_str "serve-daemon /healthz" "version" (member "version" hj) = "" then
    fail "serve-daemon: /healthz version is empty";
  if get_num "serve-daemon /healthz" "uptime_s" (member "uptime_s" hj) < 0.
  then fail "serve-daemon: /healthz uptime is negative";
  if get_num "serve-daemon /healthz" "inflight" (member "inflight" hj) < 0.
  then fail "serve-daemon: /healthz inflight is negative";
  if get_num "serve-daemon /healthz" "max_inflight" (member "max_inflight" hj)
     <> 2.
  then fail "serve-daemon: /healthz max_inflight is not the --max-inflight 2";
  if
    get_num "serve-daemon /healthz" "queue_depth" (member "queue_depth" hj)
    < 0.
  then fail "serve-daemon: /healthz queue_depth is negative";
  (match member "dbs" hj with
  | Some (Json.List names) when List.mem (Json.Str "main") names -> ()
  | _ -> fail "serve-daemon: /healthz dbs does not list main");
  (* --slow-ms 0 captures every request: the slow ring must hold our query
     with its explain profile. *)
  let slow = get_body "serve-daemon /debug/slow" port "/debug/slow" in
  let sj =
    parse "serve-daemon: /debug/slow" slow
  in
  (match member "slow" sj with
  | Some (Json.List (entry :: _)) ->
      (match member "profile" entry with
      | Some (Json.Obj _) -> ()
      | _ -> fail "serve-daemon: slow entry has no profile object");
      (match member "request" entry with
      | Some (Json.Str _) -> ()
      | _ -> fail "serve-daemon: slow entry has no request id")
  | Some (Json.List []) -> fail "serve-daemon: slow ring is empty under --slow-ms 0"
  | _ -> fail "serve-daemon: /debug/slow has no slow array");
  (* Malformed query text is the client's fault: 400 with a JSON error. *)
  let bad =
    post_expect "serve-daemon bad query" port "/query" "no such query\n"
      ~status:400
  in
  if not (contains bad "\"error\"") then
    fail "serve-daemon: 400 body has no error field: %s" (String.trim bad);
  (* Asking for a database that is not resident is 404. *)
  ignore
    (post_expect "serve-daemon unknown db" port "/query?db=nope"
       "topk k=2 metric=footrule\n" ~status:404);
  (* A supported-parse, unsupported-algorithm combination is 422. *)
  ignore
    (post_expect "serve-daemon unsupported" port "/query"
       "topk k=2 metric=kendall flavor=median\n" ~status:422);
  (* The scrape endpoint stays up and carries the scheduler counters. *)
  let metrics = get_body "serve-daemon /metrics" port "/metrics" in
  check_prometheus_text "serve-daemon /metrics" metrics;
  let requests = metric_value "serve-daemon" metrics "serve_requests_total" in
  if requests < 1. then
    fail "serve-daemon: serve_requests_total = %g, want >= 1" requests;
  ignore (metric_value "serve-daemon" metrics "serve_inflight");
  (* The latency histogram's buckets carry the most recent request id as an
     OpenMetrics exemplar. *)
  if not (contains metrics "# {request_id=\"req-") then
    fail "serve-daemon: latency buckets carry no request-id exemplar";
  (* Quit handshake: daemon drains and the process exits cleanly. *)
  let bye = get_body "serve-daemon /quit" port "/quit" in
  if bye <> "bye\n" then fail "serve-daemon: /quit body %S, want bye" bye;
  (try
     while true do
       ignore (input_line err_chan)
     done
   with End_of_file -> ());
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "serve-daemon: CLI exited with %d after /quit" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      fail "serve-daemon: CLI killed by signal %d" n);
  Printf.printf
    "serve-daemon ok: query answered, errors mapped, %g requests counted, \
     clean exit\n"
    requests

let () =
  match Array.to_list Sys.argv with
  | [ _; "trace"; path ] -> check_trace path
  | [ _; "trace-lite"; path ] -> check_trace_lite path
  | [ _; "metrics"; path ] -> check_metrics path
  | [ _; "fuzz"; out_path; err_path ] -> check_fuzz out_path err_path
  | [ _; "stderr-report"; out_path; err_path ] ->
      check_stderr_report out_path err_path
  | [ _; "batch"; out_path; err_path ] -> check_batch out_path err_path
  | [ _; "explain"; out_path; err_path ] -> check_explain out_path err_path
  | [ _; "explain-json"; out_path; err_path ] ->
      check_explain_json out_path err_path
  | [ _; "serve"; cli; db; batch ] -> check_serve cli db batch
  | [ _; "serve-daemon"; cli; db ] -> check_serve_daemon cli db
  | _ ->
      prerr_endline
        "usage: check_output (trace FILE | trace-lite FILE | metrics FILE | \
         fuzz OUT ERR | stderr-report OUT ERR | batch OUT ERR | explain \
         OUT ERR | explain-json OUT ERR | serve CLI DB BATCH | serve-daemon \
         CLI DB)";
      exit 2
