(* The serve subsystem: wire-format round-trips, scheduler admission and
   deadline semantics, protocol rendering, and an in-process daemon
   end-to-end exchange over real sockets. *)

open Consensus
module Scheduler = Consensus_serve.Scheduler
module Protocol = Consensus_serve.Protocol
module Daemon = Consensus_serve.Daemon
module Task = Consensus_engine.Task
module Deadline = Consensus_util.Deadline
module Gen = Consensus_workload.Gen
module Prng = Consensus_util.Prng
module Obs = Consensus_obs.Obs
module Log = Consensus_obs.Log
module Json = Consensus_util.Json
module Expose = Consensus_obs.Expose
module Runtime = Consensus_obs.Runtime

(* ---------- query wire format: print/parse round-trip ---------- *)

let gen_flavor = QCheck.Gen.oneofl [ Api.Mean; Api.Median ]

let gen_query =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun m f -> Api.World (m, f))
        (oneofl [ Api.Set_sym_diff; Api.Set_jaccard ])
        gen_flavor;
      map3
        (fun k m f -> Api.Topk (k, m, f))
        (int_range 1 99)
        (oneofl [ Api.Sym_diff; Api.Intersection; Api.Footrule; Api.Kendall ])
        gen_flavor;
      map (fun m -> Api.Rank m) (oneofl [ Api.Rank_footrule; Api.Rank_kendall ]);
      map2
        (fun trials samples -> Api.Cluster { trials; samples })
        (int_range 1 32)
        (opt (int_range 1 64));
    ]

let gen_proto =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun q -> Query_text.Db_query q) gen_query);
      (1, map (fun f -> Query_text.Aggregate_query f) gen_flavor);
    ]

let arb_proto = QCheck.make ~print:Query_text.print_proto gen_proto

let prop_proto_round_trip =
  QCheck.Test.make ~name:"print_proto inverts parse_proto_line" ~count:500
    arb_proto (fun p ->
      Query_text.parse_proto_line (Query_text.print_proto p) = Ok (Some p))

let prop_unparse_round_trip =
  QCheck.Test.make ~name:"unparse inverts parse_line (db families)" ~count:500
    (QCheck.make
       ~print:(fun q -> Query_text.unparse q)
       gen_query)
    (fun q -> Query_text.parse_line (Query_text.unparse q) = Ok (Some q))

let qcheck_tests =
  List.map
    (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260807 |]) t)
    [ prop_proto_round_trip; prop_unparse_round_trip ]

let test_parse_rejects () =
  (match Query_text.parse_line "aggregate flavor=mean" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse_line must reject aggregate lines");
  (match Query_text.parse_proto_line "aggregate flavor=mean" with
  | Ok (Some (Query_text.Aggregate_query Api.Mean)) -> ()
  | _ -> Alcotest.fail "parse_proto_line must accept aggregate lines");
  match Query_text.parse_proto_line "topk k=3 bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown options must be rejected"

(* ---------- scheduler ---------- *)

let await_raises name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" name
  | exception Deadline.Expired -> ()

let test_sched_deadline_running () =
  let sched = Scheduler.create ~max_inflight:1 ~max_queue:4 () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
  (* The work loops forever unless the ambient token (installed by the
     worker domain) expires — exactly how a kernel loop bails out. *)
  match
    Scheduler.submit sched ~deadline:0.05 (fun () ->
        while true do
          Deadline.check_current ();
          Unix.sleepf 0.002
        done)
  with
  | Error r -> Alcotest.failf "rejected: %s" (Scheduler.reject_to_string r)
  | Ok task ->
      await_raises "running past deadline" (fun () -> Task.await task);
      Alcotest.(check int) "inflight back to zero" 0 (Scheduler.inflight sched);
      Alcotest.(check bool)
        "deadline counted" true
        ((Scheduler.stats sched).Scheduler.deadline_exceeded >= 1)

let test_sched_deadline_queued () =
  let sched = Scheduler.create ~max_inflight:1 ~max_queue:4 () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
  let release = Atomic.make false in
  let ran = Atomic.make false in
  let blocker =
    Scheduler.submit sched (fun () ->
        while not (Atomic.get release) do
          Unix.sleepf 0.002
        done)
  in
  (* Admitted behind the blocker with a deadline shorter than the block:
     must fail with Expired without ever running. *)
  let victim =
    Scheduler.submit sched ~deadline:0.05 (fun () -> Atomic.set ran true)
  in
  (match victim with
  | Error r -> Alcotest.failf "rejected: %s" (Scheduler.reject_to_string r)
  | Ok task ->
      Unix.sleepf 0.12;
      Atomic.set release true;
      await_raises "queued past deadline" (fun () -> Task.await task);
      Alcotest.(check bool) "never ran" false (Atomic.get ran));
  match blocker with
  | Ok t -> Task.await t
  | Error r -> Alcotest.failf "blocker rejected: %s" (Scheduler.reject_to_string r)

let test_sched_queue_full () =
  let sched = Scheduler.create ~max_inflight:1 ~max_queue:0 () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
  let release = Atomic.make false in
  let blocker =
    Scheduler.submit sched (fun () ->
        while not (Atomic.get release) do
          Unix.sleepf 0.002
        done)
  in
  (* Wait for the worker to pick the blocker up, then the next submit must
     bounce: no queue slots, no idle worker. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while Scheduler.inflight sched < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check int) "blocker in flight" 1 (Scheduler.inflight sched);
  (match Scheduler.submit sched (fun () -> ()) with
  | Error Scheduler.Queue_full -> ()
  | Error r -> Alcotest.failf "wrong reject: %s" (Scheduler.reject_to_string r)
  | Ok _ -> Alcotest.fail "expected Queue_full");
  Alcotest.(check bool)
    "reject counted" true
    ((Scheduler.stats sched).Scheduler.rejected_queue_full >= 1);
  Atomic.set release true;
  match blocker with Ok t -> Task.await t | Error _ -> ()

let test_sched_exception_cleanup () =
  let sched = Scheduler.create ~max_inflight:2 ~max_queue:4 () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
  (match Scheduler.run sched (fun () -> failwith "boom") with
  | Ok _ -> Alcotest.fail "expected the exception to re-raise"
  | Error r -> Alcotest.failf "rejected: %s" (Scheduler.reject_to_string r)
  | exception Failure msg -> Alcotest.(check string) "payload" "boom" msg);
  Alcotest.(check int) "inflight back to zero" 0 (Scheduler.inflight sched);
  let stats = Scheduler.stats sched in
  Alcotest.(check int) "completed" 1 stats.Scheduler.completed;
  match Scheduler.run sched (fun () -> 7 * 6) with
  | Ok n -> Alcotest.(check int) "still serving" 42 n
  | Error r -> Alcotest.failf "rejected: %s" (Scheduler.reject_to_string r)

let test_sched_shutdown_drains () =
  let sched = Scheduler.create ~max_inflight:2 ~max_queue:16 () in
  let tasks =
    List.init 8 (fun i ->
        Scheduler.submit sched (fun () ->
            Unix.sleepf 0.01;
            i * i))
  in
  Scheduler.shutdown sched;
  List.iteri
    (fun i task ->
      match task with
      | Ok t -> Alcotest.(check int) "drained result" (i * i) (Task.await t)
      | Error r -> Alcotest.failf "rejected: %s" (Scheduler.reject_to_string r))
    tasks;
  match Scheduler.submit sched (fun () -> ()) with
  | Error Scheduler.Shutting_down -> ()
  | _ -> Alcotest.fail "expected Shutting_down after shutdown"

(* ---------- protocol ---------- *)

let test_protocol_bodies () =
  (match Protocol.parse_query_body "\n# comment\n topk k=3 metric=footrule\n" with
  | Ok (Api.Topk (3, Api.Footrule, Api.Mean)) -> ()
  | Ok _ -> Alcotest.fail "wrong query"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_query_body "aggregate flavor=median\n0.2 0.8\n0.7 0.3\n" with
  | Ok (Api.Aggregate (m, Api.Median)) ->
      Alcotest.(check int) "rows" 2 (Array.length m)
  | Ok _ -> Alcotest.fail "wrong query"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_query_body "topk k=2\nrank\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing content must be rejected");
  (match Protocol.parse_batch_body "topk k=2\n\nrank metric=kendall\n" with
  | Ok [ Api.Topk (2, _, _); Api.Rank Api.Rank_kendall ] -> ()
  | Ok _ -> Alcotest.fail "wrong batch"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_batch_body "aggregate flavor=mean\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batch must reject aggregate lines");
  Alcotest.(check int) "invalid input" 400
    (Protocol.status_of_error (Api.Error.Invalid_input "x"));
  Alcotest.(check int) "unsupported" 422
    (Protocol.status_of_error (Api.Error.Unsupported "x"));
  Alcotest.(check int) "deadline" 504
    (Protocol.status_of_error Api.Error.Deadline_exceeded);
  Alcotest.(check int) "queue full" 429
    (Protocol.status_of_reject Scheduler.Queue_full);
  Alcotest.(check int) "shutting down" 503
    (Protocol.status_of_reject Scheduler.Shutting_down)

(* ---------- api facade ---------- *)

let small_db () = Gen.bid_db (Prng.create ~seed:7 ()) 12

let test_run_result () =
  let db = small_db () in
  (match Api.run_result db (Api.Topk (3, Api.Sym_diff, Api.Mean)) with
  | Ok (Api.Topk_answer { keys; _ }) ->
      Alcotest.(check int) "k keys" 3 (Array.length keys)
  | Ok _ -> Alcotest.fail "wrong answer family"
  | Error e -> Alcotest.fail (Api.Error.to_string e));
  (match Api.run_result db (Api.Topk (3, Api.Kendall, Api.Median)) with
  | Error (Api.Error.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected Unsupported");
  (* An already-expired deadline must come back as a value, not raise. *)
  let options = Api.Options.make ~deadline:0. () in
  match Api.run_result ~options db (Api.Rank Api.Rank_footrule) with
  | Error Api.Error.Deadline_exceeded -> ()
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.Error.to_string e)

(* The footrule ranking honours its deadline whatever the database's size:
   an already-expired budget and a cancelled ambient token both come back
   as [Deadline_exceeded], on a one-alternative BID database whose solve
   polls the token before each augmentation. *)
let footrule_deadline_db () = Gen.bid_db ~max_alts:1 (Prng.create ~seed:41 ()) 200

let expect_deadline_exceeded = function
  | Error Api.Error.Deadline_exceeded -> ()
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.Error.to_string e)

let test_footrule_zero_deadline () =
  let options = Api.Options.make ~deadline:0. () in
  expect_deadline_exceeded
    (Api.run_result ~options (footrule_deadline_db ()) (Api.Rank Api.Rank_footrule))

let test_footrule_cancelled_token () =
  let db = footrule_deadline_db () in
  let token = Deadline.make () in
  Deadline.cancel token;
  expect_deadline_exceeded
    (Deadline.with_current token (fun () ->
         Api.run_result db (Api.Rank Api.Rank_footrule)))

(* ---------- daemon end-to-end ---------- *)

let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* A raw client socket that reads one Content-Length-framed response at a
   time, keeping bytes past it for the next. *)
type client = { sock : Unix.file_descr; inbox : Buffer.t }

let with_client ~port f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* A server that wrongly holds the socket open fails the test instead
     of hanging it. *)
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.;
  f { sock; inbox = Buffer.create 4096 }

let send c s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.sock s off (n - off))
  in
  go 0

(* One more read into the inbox; false at end of stream. *)
let recv c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.sock chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.inbox chunk 0 n;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "server neither answered nor closed"
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

(* True when the server has closed the socket with nothing more to read. *)
let closed c = Buffer.length c.inbox = 0 && not (recv c)

type reply = { code : int; connection : string; payload : string }

let header head name =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i
           when String.lowercase_ascii (String.trim (String.sub line 0 i)) = name
           ->
             Some
               (String.lowercase_ascii
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1))))
         | _ -> None)
  |> Option.value ~default:""

let read_reply c =
  let rec head_end () =
    match find_sub (Buffer.contents c.inbox) "\r\n\r\n" with
    | Some i -> i
    | None ->
        if recv c then head_end ()
        else Alcotest.fail "connection closed before a response"
  in
  let i = head_end () in
  let head = Buffer.sub c.inbox 0 i in
  let len = int_of_string (header head "content-length") in
  while Buffer.length c.inbox < i + 4 + len do
    if not (recv c) then Alcotest.fail "response body truncated"
  done;
  let payload = Buffer.sub c.inbox (i + 4) len in
  let rest =
    Buffer.sub c.inbox (i + 4 + len) (Buffer.length c.inbox - i - 4 - len)
  in
  Buffer.clear c.inbox;
  Buffer.add_string c.inbox rest;
  let code =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> 0
  in
  { code; connection = header head "connection"; payload }

let request_text ?(version = "HTTP/1.1") ?(headers = []) ~meth ~target body =
  Printf.sprintf "%s %s %s\r\nHost: localhost\r\nContent-Length: %d\r\n%s\r\n%s"
    meth target version (String.length body)
    (String.concat "" (List.map (fun h -> h ^ "\r\n") headers))
    body

(* One request on a fresh connection that asks to be closed. *)
let http_request ~port ~meth ~target body =
  with_client ~port @@ fun c ->
  send c (request_text ~headers:[ "Connection: close" ] ~meth ~target body);
  let r = read_reply c in
  (r.code, r.payload)

let contains haystack needle = find_sub haystack needle <> None

(* The value of one unlabelled series in a Prometheus exposition. *)
let metric_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.

let test_daemon_end_to_end () =
  let db = small_db () in
  let daemon =
    Daemon.start
      {
        Daemon.default_config with
        Daemon.dbs = [ ("main", db) ];
        max_inflight = 2;
        max_queue = 8;
      }
  in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let port = Daemon.port daemon in
  let status, body = http_request ~port ~meth:"POST" ~target:"/query" "topk k=3" in
  Alcotest.(check int) "query ok" 200 status;
  Alcotest.(check bool) "has answer" true (contains body "\"answer\"");
  let status, _ = http_request ~port ~meth:"POST" ~target:"/query?db=nope" "topk" in
  Alcotest.(check int) "unknown db" 404 status;
  let status, _ = http_request ~port ~meth:"POST" ~target:"/query" "gibberish" in
  Alcotest.(check int) "malformed query" 400 status;
  let status, body =
    http_request ~port ~meth:"POST" ~target:"/query"
      "topk k=2 metric=kendall flavor=median"
  in
  Alcotest.(check int) "unsupported" 422 status;
  Alcotest.(check bool) "reason" true (contains body "unsupported");
  let status, body =
    http_request ~port ~meth:"POST" ~target:"/batch" "topk k=2\nrank\nworld"
  in
  Alcotest.(check int) "batch ok" 200 status;
  Alcotest.(check bool) "three results" true (contains body "\"results\"");
  let status, body = http_request ~port ~meth:"GET" ~target:"/dbs" "" in
  Alcotest.(check int) "dbs ok" 200 status;
  Alcotest.(check bool) "named" true (contains body "\"main\"");
  let status, body = http_request ~port ~meth:"GET" ~target:"/metrics" "" in
  Alcotest.(check int) "metrics ok" 200 status;
  Alcotest.(check bool) "serve metrics" true (contains body "serve_requests_total");
  let status, _ = http_request ~port ~meth:"GET" ~target:"/query" "" in
  Alcotest.(check int) "get on query" 405 status

(* The daemon runs every kernel inline on its scheduler worker; a CLI or
   batch run fans the same kernels out on an engine pool.  The answers must
   not tell the two apart: each query line of the CLI batch fixture, posted
   to a daemon, answers with the bytes [Protocol.answer_json] renders for
   [Api.run] on a four-slot pool under the same seed.  Two resident
   databases: the CLI fixture, and a 40-key BID database on which rank
   Kendall takes the randomised pivot path instead of the exact DP, and
   its answer depends on the seed, so the seed must reach the kernel. *)
let test_daemon_answers_match_pool () =
  let lines =
    In_channel.with_open_text "cli/batch.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let dbs =
    [
      ("cli", Consensus_textio.Formats.load_db "cli/db.txt");
      ("gen", Gen.bid_db (Prng.create ~seed:7 ()) 40);
    ]
  in
  Consensus_engine.Pool.with_pool ~jobs:4 @@ fun pool ->
  let pooled db seed line =
    let query =
      match Query_text.parse_line line with
      | Ok (Some q) -> q
      | _ -> Alcotest.failf "batch line does not parse: %S" line
    in
    let options =
      Api.Options.make ~pool ~rng:(Prng.create ~seed ()) ~cache:false ()
    in
    match Api.run_result ~options db query with
    | Ok answer -> Json.to_string (Protocol.answer_json db answer)
    | Error e -> Alcotest.failf "%S: %s" line (Api.Error.to_string e)
  in
  let daemon =
    Daemon.start
      { Daemon.default_config with Daemon.dbs; max_inflight = 2; access_log = false }
  in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let port = Daemon.port daemon in
  List.iter
    (fun (name, db) ->
      List.iteri
        (fun i line ->
          let seed = 40 + i in
          let expected = pooled db seed line in
          let status, body =
            http_request ~port ~meth:"POST"
              ~target:(Printf.sprintf "/query?db=%s&seed=%d" name seed)
              line
          in
          Alcotest.(check int) (name ^ ": " ^ line) 200 status;
          if not (contains body ("\"answer\":" ^ expected)) then
            Alcotest.failf "%s: %S served\n%s\nbut a pooled run answers\n%s"
              name line (String.trim body) expected)
        lines)
    dbs

let test_daemon_deadline () =
  (* A kernel-heavy query under a 1 ms deadline: the daemon runs kernels
     inline, and the engine's sequential path checks the ambient token
     before every body (as do the kernels' own cooperative checks), so this
     must come back 504, not run to completion. *)
  let db = Gen.bid_db (Prng.create ~seed:11 ()) 60 in
  let daemon =
    Daemon.start
      {
        Daemon.default_config with
        Daemon.dbs = [ ("main", db) ];
        max_inflight = 1;
        max_queue = 4;
      }
  in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let port = Daemon.port daemon in
  let status, body =
    http_request ~port ~meth:"POST" ~target:"/query?deadline_ms=1"
      "rank metric=kendall"
  in
  if status = 200 then Alcotest.fail "expected a deadline failure, got 200"
  else begin
    Alcotest.(check int) "gateway timeout" 504 status;
    Alcotest.(check bool) "says deadline" true (contains body "deadline")
  end

(* ---------- Expose request-parsing hardening ---------- *)

let with_small_daemon ?(slow_threshold = infinity) ?db f =
  let db = match db with Some db -> db | None -> small_db () in
  let daemon =
    Daemon.start
      {
        Daemon.default_config with
        Daemon.dbs = [ ("main", db) ];
        max_inflight = 1;
        max_queue = 8;
        slow_threshold;
      }
  in
  (* Keep the access log out of the test output; the ring still records. *)
  Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Log.set_stderr true;
      Daemon.stop daemon)
    (fun () -> f daemon (Daemon.port daemon))

(* ---------- persistent connections ---------- *)

(* A /query answer without the fields that differ between two runs of the
   same query: its request id and wall time. *)
let stable_fields payload =
  match Suite_obs.parse_json payload with
  | Json.Obj fields ->
      List.filter (fun (k, _) -> k <> "request" && k <> "elapsed_ms") fields
  | _ -> Alcotest.fail "query body is not a JSON object"

(* [request] is answered [code] with [Connection: close], and then the
   socket ends. *)
let check_closing ~port name code request =
  with_client ~port @@ fun c ->
  send c request;
  let r = read_reply c in
  Alcotest.(check int) name code r.code;
  Alcotest.(check string) (name ^ ": says close") "close" r.connection;
  Alcotest.(check bool) (name ^ ": socket closed") true (closed c)

let test_expose_hardening () =
  with_small_daemon @@ fun _daemon port ->
  (* Duplicate Content-Length headers are a smuggling vector: reject even
     when the values agree. *)
  check_closing ~port "duplicate content-length" 400
    "POST /query HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: \
     4\r\n\r\nrank";
  check_closing ~port "conflicting content-length" 400
    "POST /query HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: \
     7\r\n\r\nrank";
  check_closing ~port "non-numeric content-length" 400
    "POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\nrank";
  check_closing ~port "negative content-length" 400
    "POST /query HTTP/1.1\r\nContent-Length: -4\r\n\r\nrank";
  check_closing ~port "oversized request line" 400
    (Printf.sprintf "GET /%s HTTP/1.1\r\n\r\n" (String.make 9000 'a'));
  check_closing ~port "oversized body" 413
    "POST /query HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n";
  (* Only Content-Length framing is understood.  A chunked body must not
     be left on the socket, where its payload — here a second request —
     would be read as the next request. *)
  check_closing ~port "chunked body" 400
    "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
     15\r\nGET /dbs HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
  check_closing ~port "transfer-encoding beside content-length" 400
    "POST /query HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: \
     identity\r\n\r\nrank";
  (* A well-formed request still goes through on the same server. *)
  let status, _ = http_request ~port ~meth:"POST" ~target:"/query" "rank" in
  Alcotest.(check int) "server still serving" 200 status;
  (* A request stalled past the receive timeout is answered 408, and
     [/quit] closes its connection too. *)
  let server = Expose.start ~read_timeout:0.2 ~port:0 () in
  Fun.protect ~finally:(fun () -> Expose.stop server) @@ fun () ->
  let port = Expose.port server in
  check_closing ~port "stalled request" 408 "GET /healthz HTTP/1.1\r\n";
  check_closing ~port "quit" 200 (request_text ~meth:"GET" ~target:"/quit" "")

let test_keepalive_same_bytes () =
  with_small_daemon @@ fun _daemon port ->
  let queries = [ "topk k=3"; "rank metric=footrule" ] in
  let fresh =
    List.map
      (fun q ->
        let status, body = http_request ~port ~meth:"POST" ~target:"/query" q in
        Alcotest.(check int) "fresh connection" 200 status;
        stable_fields body)
      queries
  in
  with_client ~port @@ fun c ->
  List.iter2
    (fun q expected ->
      send c (request_text ~meth:"POST" ~target:"/query" q);
      let r = read_reply c in
      Alcotest.(check int) "kept-alive status" 200 r.code;
      Alcotest.(check string) "kept alive" "keep-alive" r.connection;
      Alcotest.(check bool) (q ^ ": same answer") true
        (stable_fields r.payload = expected))
    queries fresh;
  (* Deterministic bodies are byte-identical too. *)
  let status, body = http_request ~port ~meth:"GET" ~target:"/dbs" "" in
  send c (request_text ~meth:"GET" ~target:"/dbs" "");
  let r = read_reply c in
  Alcotest.(check int) "dbs status" status r.code;
  Alcotest.(check string) "dbs bytes" body r.payload

let test_keepalive_pipelined () =
  with_small_daemon @@ fun _daemon port ->
  with_client ~port @@ fun c ->
  (* Three requests in one write: each is answered, in order. *)
  send c
    (request_text ~meth:"POST" ~target:"/query" "topk k=2"
    ^ request_text ~meth:"GET" ~target:"/dbs" ""
    ^ request_text ~meth:"POST" ~target:"/query?db=nope" "rank");
  let first = read_reply c in
  Alcotest.(check int) "first is the query" 200 first.code;
  Alcotest.(check bool) "first carries an answer" true
    (contains first.payload "\"answer\"");
  let second = read_reply c in
  Alcotest.(check int) "second is /dbs" 200 second.code;
  Alcotest.(check bool) "second names the db" true
    (contains second.payload "\"main\"");
  let third = read_reply c in
  Alcotest.(check int) "third is the unknown db" 404 third.code;
  Alcotest.(check string) "still alive" "keep-alive" third.connection

let test_keepalive_close () =
  with_small_daemon @@ fun _daemon port ->
  let ask name ?version ?headers expected_connection =
    with_client ~port @@ fun c ->
    send c (request_text ?version ?headers ~meth:"GET" ~target:"/dbs" "");
    let r = read_reply c in
    Alcotest.(check int) name 200 r.code;
    Alcotest.(check string) name expected_connection r.connection;
    if expected_connection = "close" then
      Alcotest.(check bool) (name ^ ": socket closed") true (closed c)
  in
  ask "Connection: close" ~headers:[ "Connection: close" ] "close";
  ask "HTTP/1.0" ~version:"HTTP/1.0" "close";
  ask "HTTP/1.0 keep-alive" ~version:"HTTP/1.0"
    ~headers:[ "Connection: keep-alive" ] "keep-alive";
  ask "HTTP/1.1 default" "keep-alive"

let wait_until ?(timeout = 2.) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done

let test_keepalive_idle_timeout () =
  let server = Expose.start ~read_timeout:0.25 ~port:0 () in
  Fun.protect ~finally:(fun () -> Expose.stop server) @@ fun () ->
  with_client ~port:(Expose.port server) @@ fun c ->
  send c (request_text ~meth:"GET" ~target:"/healthz" "");
  let r = read_reply c in
  Alcotest.(check string) "kept alive" "keep-alive" r.connection;
  Alcotest.(check int) "idle connection counted" 1 (Expose.connections server);
  Alcotest.(check bool) "idle client released" true (closed c);
  wait_until (fun () -> Expose.connections server = 0);
  Alcotest.(check int) "connection count back to 0" 0
    (Expose.connections server)

let test_keepalive_stop () =
  with_small_daemon @@ fun daemon port ->
  with_client ~port @@ fun c ->
  send c (request_text ~meth:"POST" ~target:"/query" "topk k=2");
  Alcotest.(check string) "kept alive" "keep-alive" (read_reply c).connection;
  let t0 = Unix.gettimeofday () in
  Daemon.stop daemon;
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 1. then Alcotest.failf "Daemon.stop took %.2f s on an idle client" dt;
  Alcotest.(check bool) "idle client closed" true (closed c);
  (* At the connection cap the accept loop itself waits for a slot that an
     idle client holds; stop must still not wait out the read timeout. *)
  let server = Expose.start ~max_connections:1 ~port:0 () in
  Fun.protect ~finally:(fun () -> Expose.stop server) @@ fun () ->
  let port = Expose.port server in
  with_client ~port @@ fun held ->
  send held (request_text ~meth:"GET" ~target:"/healthz" "");
  Alcotest.(check int) "held" 200 (read_reply held).code;
  with_client ~port @@ fun queued ->
  send queued (request_text ~meth:"GET" ~target:"/healthz" "");
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Expose.stop server;
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 1. then Alcotest.failf "Expose.stop took %.2f s at the cap" dt;
  Alcotest.(check bool) "held client closed" true (closed held)

let test_daemon_healthz () =
  with_small_daemon @@ fun _daemon port ->
  let status, body = http_request ~port ~meth:"GET" ~target:"/healthz" "" in
  Alcotest.(check int) "healthz ok" 200 status;
  match Suite_obs.parse_json body with
  | Json.Obj fields ->
      let str name =
        match List.assoc_opt name fields with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.failf "healthz lacks string field %s" name
      in
      let num name =
        match Option.bind (List.assoc_opt name fields) Json.to_float with
        | Some f -> f
        | _ -> Alcotest.failf "healthz lacks numeric field %s" name
      in
      Alcotest.(check (list string))
        "the Expose.healthz fields come first"
        [
          "status";
          "version";
          "uptime_s";
          "inflight";
          "max_inflight";
          "queue_depth";
          "dbs";
        ]
        (List.map fst fields);
      Alcotest.(check string) "status" "ok" (str "status");
      Alcotest.(check bool) "version non-empty" true (str "version" <> "");
      Alcotest.(check bool) "uptime non-negative" true (num "uptime_s" >= 0.);
      Alcotest.(check (float 0.)) "max_inflight in use" 1. (num "max_inflight");
      Alcotest.(check bool) "inflight bounded" true
        (num "inflight" >= 0. && num "inflight" <= num "max_inflight");
      Alcotest.(check bool) "queue depth present" true (num "queue_depth" >= 0.);
      (match List.assoc_opt "dbs" fields with
      | Some (Json.List names) ->
          Alcotest.(check bool) "resident db listed" true
            (List.mem (Json.Str "main") names)
      | _ -> Alcotest.fail "healthz lacks dbs array")
  | _ -> Alcotest.fail "healthz body is not a JSON object"

(* ---------- debug endpoints ---------- *)

let check_json_error name ~port target frag =
  let status, body = http_request ~port ~meth:"GET" ~target "" in
  Alcotest.(check int) (name ^ " status") 400 status;
  Alcotest.(check bool) (name ^ " json error") true (contains body "\"error\"");
  Alcotest.(check bool) (name ^ " names the parameter") true (contains body frag)

(* Malformed parameters on the debug routes answer 400 with a JSON error
   naming the parameter, and the exposition carries the process-identity
   gauges, the engine-pool domain count and the GC-pause series.  The
   daemon's kernels run inline on its scheduler workers, so starting it
   and serving a query spawns no engine worker domain. *)
let test_daemon_debug_endpoints () =
  (* Gauges only move while observability is on; the daemon turns it on
     at start anyway. *)
  Obs.set_enabled true;
  let domains_before =
    metric_value (Obs.metrics_text ()) "ocaml_domains_active"
  in
  with_small_daemon @@ fun _daemon port ->
  let status, _ =
    http_request ~port ~meth:"POST" ~target:"/query?cache=false"
      "rank metric=footrule"
  in
  Alcotest.(check int) "query ok" 200 status;
  check_json_error "trace non-numeric limit" ~port "/trace?limit=abc" "limit";
  check_json_error "trace negative limit" ~port "/trace?limit=-1" "limit";
  check_json_error "slow non-numeric limit" ~port "/debug/slow?limit=abc" "limit";
  check_json_error "slow negative limit" ~port "/debug/slow?limit=-1" "limit";
  check_json_error "log non-numeric limit" ~port "/debug/log?limit=xyz" "limit";
  let status, body = http_request ~port ~meth:"GET" ~target:"/metrics" "" in
  Alcotest.(check int) "metrics ok" 200 status;
  List.iter
    (fun metric ->
      Alcotest.(check bool) ("exposes " ^ metric) true (contains body metric))
    [
      "process_uptime_seconds";
      "process_start_time_seconds";
      "ocaml_domains_active";
      "gc_pause_seconds";
    ];
  Alcotest.(check (float 0.))
    "no engine worker domain spawned" domains_before
    (metric_value body "ocaml_domains_active")

(* ---------- request tracing end to end ---------- *)

(* The acceptance path: a request served with slow capture on and
   [explain=true] must (a) return its request id and an inline profile,
   (b) have its spans tagged with that id, (c) produce an access-log event
   and a /debug/slow entry that agree on timings and cache traffic, and
   (d) appear as the latency histogram's bucket exemplar in /metrics. *)
let test_daemon_tracing_acceptance () =
  with_small_daemon ~slow_threshold:0. @@ fun _daemon port ->
  let status, body =
    http_request ~port ~meth:"POST" ~target:"/query?explain=true" "topk k=3"
  in
  Alcotest.(check int) "query ok" 200 status;
  let obj = Suite_obs.parse_json body in
  let req_id =
    match Json.member "request" obj with
    | Some (Json.Str id) -> id
    | _ -> Alcotest.fail "response carries no request id"
  in
  let inline_profile =
    match Json.member "profile" obj with
    | Some p -> p
    | None -> Alcotest.fail "explain=true returned no inline profile"
  in
  (* (b) spans recorded during the evaluation are tagged with the id. *)
  let spans = Obs.request_spans req_id in
  Alcotest.(check bool) "request spans recorded" true (spans <> []);
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        (s.Obs.span_name ^ " tagged")
        (Some req_id) s.Obs.span_request)
    spans;
  (* (c) the access-log event... *)
  let access =
    match
      List.find_opt
        (fun ev -> ev.Log.ev_name = "access" && ev.Log.ev_request = Some req_id)
        (Log.recent ())
    with
    | Some ev -> ev
    | None -> Alcotest.fail "no access-log event for the request"
  in
  let afield name =
    match List.assoc_opt name access.Log.ev_fields with
    | Some v -> v
    | None -> Alcotest.failf "access event lacks %s" name
  in
  Alcotest.(check bool) "access route" true (afield "route" = Json.Str "/query");
  (match afield "family" with
  | Json.Str f ->
      Alcotest.(check bool) "access family names the query" true
        (String.length f >= 4 && String.sub f 0 4 = "topk")
  | _ -> Alcotest.fail "access family not a string");
  Alcotest.(check bool) "access status" true (afield "status" = Json.Int 200);
  (* ...agrees with the /debug/slow entry on timings and cache stats. *)
  let status, slow_body =
    http_request ~port ~meth:"GET" ~target:"/debug/slow" ""
  in
  Alcotest.(check int) "debug/slow ok" 200 status;
  let entries =
    match Json.member "slow" (Suite_obs.parse_json slow_body) with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "/debug/slow body has no slow array"
  in
  let entry =
    match
      List.find_opt
        (fun e -> Json.member "request" e = Some (Json.Str req_id))
        entries
    with
    | Some e -> e
    | None -> Alcotest.fail "slow ring lost the request"
  in
  let anum name =
    match afield name with
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> Alcotest.failf "access %s not numeric" name
  in
  let snum name =
    match Option.bind (Json.member name entry) Json.to_float with
    | Some f -> f
    | _ -> Alcotest.failf "slow entry lacks %s" name
  in
  List.iter
    (fun name ->
      Alcotest.(check (float 1e-9)) ("agree on " ^ name) (anum name) (snum name))
    [ "queue_wait_ms"; "run_ms"; "cache_hits"; "cache_misses" ];
  (* The inline profile and the captured one are the same fold. *)
  (match Json.member "profile" entry with
  | Some slow_profile ->
      Alcotest.(check bool) "inline profile = slow-ring profile" true
        (slow_profile = inline_profile)
  | None -> Alcotest.fail "slow entry has no profile");
  (* ?limit bounds the ring export. *)
  let status, limited =
    http_request ~port ~meth:"GET" ~target:"/debug/slow?limit=0" ""
  in
  Alcotest.(check int) "limit accepted" 200 status;
  (match Json.member "slow" (Suite_obs.parse_json limited) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "limit=0 must keep nothing");
  (* /debug/log exposes the same events the in-process ring holds. *)
  let status, log_body =
    http_request ~port ~meth:"GET" ~target:"/debug/log?limit=5" ""
  in
  Alcotest.(check int) "debug/log ok" 200 status;
  Alcotest.(check bool) "access event exported" true
    (contains log_body "\"access\"");
  (* (d) the latency histogram's exemplar names the request. *)
  let status, metrics = http_request ~port ~meth:"GET" ~target:"/metrics" "" in
  Alcotest.(check int) "metrics ok" 200 status;
  Alcotest.(check bool) "exemplar names the request" true
    (contains metrics (Printf.sprintf "# {request_id=\"%s\"}" req_id))

(* Obs.reset concurrent with in-flight requests: the generation counter
   makes stale span closes no-ops, so the daemon must keep answering 200
   (possibly with empty profiles) and never crash or misattribute. *)
let test_daemon_obs_reset_race () =
  with_small_daemon ~slow_threshold:0. @@ fun _daemon port ->
  let stop = Atomic.make false in
  let resetter =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Obs.reset ();
          Domain.cpu_relax ()
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join resetter)
    (fun () ->
      for _ = 1 to 15 do
        let status, body =
          http_request ~port ~meth:"POST" ~target:"/query?explain=true"
            "topk k=2"
        in
        Alcotest.(check int) "ok under reset churn" 200 status;
        Alcotest.(check bool) "still carries a request id" true
          (contains body "\"request\"");
        Alcotest.(check bool) "still carries a profile" true
          (contains body "\"profile\"")
      done)

(* The largest top-k of the serve_churn benchmark workload (k = 16 over a
   24-key BID database), uncached, records about a thousand spans; its
   explain profile must still telescope (Σ self = Σ roots) under the
   per-domain span-retention bound. *)
let test_explain_telescopes_at_size () =
  with_small_daemon ~db:(Gen.bid_db ~max_alts:2 (Prng.create ~seed:7 ()) 24)
  @@ fun _daemon port ->
  let status, body =
    http_request ~port ~meth:"POST"
      ~target:"/query?explain=true&cache=false"
      "topk k=16 metric=symdiff flavor=mean"
  in
  Alcotest.(check int) "query ok" 200 status;
  let profile =
    match Json.member "profile" (Suite_obs.parse_json body) with
    | Some p -> p
    | None -> Alcotest.fail "explain=true returned no profile"
  in
  let num name obj =
    match Option.bind (Json.member name obj) Json.to_float with
    | Some f -> f
    | _ -> Alcotest.failf "profile lacks %s" name
  in
  let rows =
    match Json.member "hotspots" profile with
    | Some (Json.List rows) -> rows
    | _ -> Alcotest.fail "profile lacks hotspots"
  in
  let self = List.fold_left (fun a r -> a +. num "self_s" r) 0. rows in
  let roots = num "accounted_s" profile in
  Alcotest.(check bool) "spans recorded" true (num "spans" profile > 0.);
  Alcotest.(check (float (1e-9 +. (1e-6 *. roots)))) "self sums to roots" roots self

(* ---------- overload and GC-pause attribution over sockets ---------- *)

(* Backpressure end to end: a barrier-released burst of uncached top-k
   queries against one running slot and one queue slot is shed with 429,
   never blocked or dropped; every rejection shows in serve_rejected_total;
   and once the burst is answered the scheduler gauges are back to 0. *)
let test_daemon_backpressure () =
  let db = Gen.bid_db (Prng.create ~seed:27 ()) 60 in
  let daemon =
    Daemon.start
      {
        Daemon.default_config with
        Daemon.dbs = [ ("main", db) ];
        max_inflight = 1;
        max_queue = 1;
        access_log = false;
      }
  in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let port = Daemon.port daemon in
  let rejected_total () =
    let status, body = http_request ~port ~meth:"GET" ~target:"/metrics" "" in
    Alcotest.(check int) "metrics ok" 200 status;
    metric_value body "serve_rejected_total"
  in
  let rejected_before = rejected_total () in
  let clients = 8 in
  let statuses = Array.make clients 0 in
  let lock = Mutex.create () and cond = Condition.create () in
  let ready = ref 0 and go = ref false in
  let client i =
    Mutex.lock lock;
    incr ready;
    Condition.broadcast cond;
    while not !go do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    (* A failed exchange leaves status -1, which the check below reports. *)
    statuses.(i) <-
      (try
         fst
           (http_request ~port ~meth:"POST" ~target:"/query?cache=false"
              "topk k=8 metric=footrule")
       with _ -> -1)
  in
  let threads = List.init clients (Thread.create client) in
  Mutex.lock lock;
  while !ready < clients do
    Condition.wait cond lock
  done;
  go := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  List.iter Thread.join threads;
  let count code = Array.fold_left (fun n s -> if s = code then n + 1 else n) 0 statuses in
  Alcotest.(check (list int))
    "every status is 200 or 429" []
    (List.filter (fun s -> s <> 200 && s <> 429) (Array.to_list statuses));
  Alcotest.(check bool) "the burst overflowed the queue" true (count 429 >= 1);
  Alcotest.(check (float 0.))
    "serve_rejected_total counts every 429"
    (float_of_int (count 429))
    (rejected_total () -. rejected_before);
  let status, body = http_request ~port ~meth:"GET" ~target:"/healthz" "" in
  Alcotest.(check int) "healthz ok" 200 status;
  let health = Suite_obs.parse_json body in
  List.iter
    (fun gauge ->
      Alcotest.(check (option (float 0.)))
        (gauge ^ " drained") (Some 0.)
        (Option.bind (Json.member gauge health) Json.to_float))
    [ "inflight"; "queue_depth" ]

(* GC-pause attribution reaches the slow ring.  With the runtime-events
   consumer started (as `consensus serve` runs) and every request
   slow-captured, uncached footrule rankings of an 800-key database run past
   the scheduler's 20 ms full-drain threshold, so each slow entry sees the
   pauses inside its own run window.  Such a ranking builds an n × n rank
   table and runs one assignment solve whose 10,937 Dijkstra steps each
   fill and scan an 800-float row: 84–119 ms at 800 keys on a 2-vCPU host
   in the default build profile, over 4× the threshold (400 keys took
   18–21 ms, too close to it).  Faster requests see only pauses an earlier
   drain recorded, so the test first asserts that a run did reach 20 ms: a
   future speed-up fails that precondition instead of flaking. *)
let test_daemon_gc_pause_attribution () =
  let db = Gen.bid_db (Prng.create ~seed:31 ()) 800 in
  Runtime.start ();
  Fun.protect ~finally:Runtime.stop @@ fun () ->
  with_small_daemon ~slow_threshold:0. ~db @@ fun _daemon port ->
  for _ = 1 to 5 do
    let status, _ =
      http_request ~port ~meth:"POST" ~target:"/query?cache=false"
        "rank metric=footrule"
    in
    Alcotest.(check int) "rank ok" 200 status
  done;
  let status, body = http_request ~port ~meth:"GET" ~target:"/debug/slow" "" in
  Alcotest.(check int) "slow ring ok" 200 status;
  let entries =
    match Json.member "slow" (Suite_obs.parse_json body) with
    | Some (Json.List entries) -> entries
    | _ -> Alcotest.fail "/debug/slow lacks its slow array"
  in
  let field name e =
    match Option.bind (Json.member name e) Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "slow entry lacks %s" name
  in
  Alcotest.(check int) "every request captured" 5 (List.length entries);
  let longest = List.fold_left (fun m e -> Float.max m (field "run_ms" e)) 0. entries in
  if longest < 20. then
    Alcotest.failf
      "precondition: no run reached the 20 ms drain threshold (longest %.1f ms)"
      longest;
  Alcotest.(check bool) "a slow entry carries a GC pause" true
    (List.exists (fun e -> field "gc_pause_ms" e > 0.) entries)

let suite =
  qcheck_tests
  @ [
      Alcotest.test_case "wire-format acceptance boundaries" `Quick
        test_parse_rejects;
      Alcotest.test_case "scheduler aborts an expired running request" `Quick
        test_sched_deadline_running;
      Alcotest.test_case "scheduler expires queued requests unrun" `Quick
        test_sched_deadline_queued;
      Alcotest.test_case "scheduler bounds its queue" `Quick test_sched_queue_full;
      Alcotest.test_case "scheduler survives request exceptions" `Quick
        test_sched_exception_cleanup;
      Alcotest.test_case "shutdown drains admitted requests" `Quick
        test_sched_shutdown_drains;
      Alcotest.test_case "protocol bodies and status mapping" `Quick
        test_protocol_bodies;
      Alcotest.test_case "run_result returns typed errors" `Quick test_run_result;
      Alcotest.test_case "daemon end-to-end over sockets" `Quick
        test_daemon_end_to_end;
      Alcotest.test_case "daemon enforces per-request deadlines" `Quick
        test_daemon_deadline;
      Alcotest.test_case "expose rejects ambiguous framing" `Quick
        test_expose_hardening;
      Alcotest.test_case "keep-alive answers as fresh connections" `Quick
        test_keepalive_same_bytes;
      Alcotest.test_case "keep-alive answers pipelined requests in order"
        `Quick test_keepalive_pipelined;
      Alcotest.test_case "keep-alive honours close and HTTP/1.0" `Quick
        test_keepalive_close;
      Alcotest.test_case "keep-alive releases idle clients" `Quick
        test_keepalive_idle_timeout;
      Alcotest.test_case "stop does not wait on idle clients" `Quick
        test_keepalive_stop;
      Alcotest.test_case "explain profile telescopes at size" `Quick
        test_explain_telescopes_at_size;
      Alcotest.test_case "healthz reports daemon state" `Quick
        test_daemon_healthz;
      Alcotest.test_case "daemon debug endpoints validate parameters" `Quick
        test_daemon_debug_endpoints;
      Alcotest.test_case "request tracing end to end" `Quick
        test_daemon_tracing_acceptance;
      Alcotest.test_case "daemon sheds a burst with 429" `Quick
        test_daemon_backpressure;
      Alcotest.test_case "slow entries carry GC pauses" `Quick
        test_daemon_gc_pause_attribution;
      Alcotest.test_case "obs reset races in-flight requests" `Quick
        test_daemon_obs_reset_race;
      Alcotest.test_case "served answers match a pooled run" `Quick
        test_daemon_answers_match_pool;
      Alcotest.test_case "footrule honours a zero deadline" `Quick
        test_footrule_zero_deadline;
      Alcotest.test_case "footrule honours a cancelled token" `Quick
        test_footrule_cancelled_token;
    ]
