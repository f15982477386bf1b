(* E27 — consensus-as-a-service: the query daemon under concurrent load.
   A fleet of loopback HTTP clients hammers POST /query against an
   in-process daemon.  Three phases: saturation throughput and latency
   percentiles with a deep admission queue; deadline enforcement (504s
   from a 1 ms budget on an expensive ranking query); backpressure (429s
   from a 2-slot queue under a full-fleet burst).  Percentiles, throughput
   and the scheduler counters are dumped to BENCH_SERVE.json. *)

open Consensus_util
module Gen = Consensus_workload.Gen
module Daemon = Consensus_serve.Daemon
module Scheduler = Consensus_serve.Scheduler
module Json = Consensus_util.Json

(* ---------- minimal loopback HTTP client ---------- *)

(* One request on a fresh connection, read to end of stream: it asks the
   daemon to close after answering, which would otherwise keep it alive.
   Returns the status code, or 0 when the connection itself failed. *)
let request port ~meth ~path ~body =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> (0, "")
  | sock -> (
      let finally () = try Unix.close sock with Unix.Unix_error _ -> () in
      match
        Fun.protect ~finally (fun () ->
            Unix.connect sock
              (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let req =
              Printf.sprintf
                "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\
                 Connection: close\r\n\r\n%s"
                meth path (String.length body) body
            in
            let n = String.length req in
            let rec write_all off =
              if off < n then
                write_all (off + Unix.write_substring sock req off (n - off))
            in
            write_all 0;
            let buf = Buffer.create 1024 in
            let chunk = Bytes.create 4096 in
            let rec read_all () =
              match Unix.read sock chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  read_all ()
            in
            read_all ();
            Buffer.contents buf)
      with
      | exception Unix.Unix_error _ -> (0, "")
      | resp -> (
          (* "HTTP/1.1 NNN ..." *)
          match String.index_opt resp ' ' with
          | Some i when String.length resp >= i + 4 -> (
              match int_of_string_opt (String.sub resp (i + 1) 3) with
              | Some code -> (code, resp)
              | None -> (0, resp))
          | _ -> (0, resp)))

let post_query port ?(params = "") body =
  fst (request port ~meth:"POST" ~path:("/query" ^ params) ~body)

(* ---------- client fleet ---------- *)

type shot = { status : int; latency : float }

(* [fleet n per_client shoot] runs [n] client threads, each issuing
   [per_client] requests through [shoot client_index request_index]; every
   request is timed individually.  Returns (all shots, wall seconds). *)
let fleet n per_client shoot =
  let results = Array.make n [] in
  let worker i =
    (* Stagger the initial thundering herd a little so the listen backlog
       survives the first instant; the fleet is fully concurrent within
       100 ms of start. *)
    Unix.sleepf (float_of_int (i mod 100) *. 0.001);
    let shots = ref [] in
    for r = 0 to per_client - 1 do
      let t0 = Unix.gettimeofday () in
      let status = shoot i r in
      shots := { status; latency = Unix.gettimeofday () -. t0 } :: !shots
    done;
    results.(i) <- !shots
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init n (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (Array.to_list results |> List.concat, wall)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let count_status shots code =
  List.length (List.filter (fun s -> s.status = code) shots)

(* Pull one counter out of the Prometheus exposition. *)
let metric_value text name =
  let prefix = name ^ " " in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if
           String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         then
           float_of_string_opt
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)
  |> Option.value ~default:0.

(* ---------- the experiment ---------- *)

let run () =
  Harness.header "E27: query daemon under load (lib/serve)";
  let g = Prng.create ~seed:2701 () in
  let clients = if !Harness.quick then 200 else 1000 in
  let per_client = 2 in
  let small = Gen.bid_db g 14 in
  let big = Gen.bid_db g 60 in

  (* Phase 1+2 daemon: queue deep enough that the whole fleet fits, so the
     measurement is latency under queueing, not rejects. *)
  let d1 =
    Daemon.start
      {
        Daemon.default_config with
        dbs = [ ("small", small); ("big", big) ];
        jobs = 2;
        max_inflight = 4;
        max_queue = 4 * clients;
        max_connections = 256;
        access_log = false;
        (* Pin the continuous monitor (a later experiment's subject) off:
           this experiment isolates the serving fabric itself, and its
           committed baselines predate the sampler. *)
        monitor_interval = 0.;
      }
  in
  let port1 = Daemon.port d1 in
  (* Nine query shapes cycled across the fleet: after each shape's first
     evaluation the shared cache serves the intermediates, so the run
     measures the serving fabric at saturation, not kernel time. *)
  let shapes =
    [|
      "topk k=2 metric=footrule";
      "topk k=4 metric=footrule";
      "topk k=8 metric=footrule";
      "topk k=2 metric=symdiff";
      "topk k=4 metric=symdiff";
      "topk k=8 metric=symdiff";
      "topk k=2 metric=intersection";
      "world metric=symdiff";
      "rank metric=footrule";
    |]
  in
  let shots, wall =
    fleet clients per_client (fun i r ->
        let body = shapes.((i + r) mod Array.length shapes) ^ "\n" in
        post_query port1 ~params:"?db=small" body)
  in
  let ok = count_status shots 200 in
  let status_breakdown shots =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun s ->
        Hashtbl.replace tbl s.status
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s.status)))
      shots;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  let breakdown = status_breakdown shots in
  let latencies =
    List.filter (fun s -> s.status = 200) shots
    |> List.map (fun s -> s.latency)
    |> Array.of_list
  in
  Array.sort Float.compare latencies;
  let p50 = percentile latencies 0.50
  and p90 = percentile latencies 0.90
  and p99 = percentile latencies 0.99 in
  let throughput = float_of_int ok /. wall in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf "%d clients x %d requests, 4 workers, saturation"
           clients per_client)
      [
        ("measure", Harness.Tables.Left);
        ("value", Harness.Tables.Right);
      ]
  in
  Harness.Tables.add_row table
    [ "completed (200)"; Printf.sprintf "%d/%d" ok (clients * per_client) ];
  Harness.Tables.add_row table
    [ "throughput"; Printf.sprintf "%.0f req/s" throughput ];
  Harness.Tables.add_row table [ "p50 latency"; Harness.ms p50 ];
  Harness.Tables.add_row table [ "p90 latency"; Harness.ms p90 ];
  Harness.Tables.add_row table [ "p99 latency"; Harness.ms p99 ];
  Harness.Tables.print table;
  Harness.note "statuses: %s"
    (String.concat ", "
       (List.map
          (fun (code, n) ->
            Printf.sprintf "%s=%d"
              (if code = 0 then "failed" else string_of_int code)
              n)
          breakdown));

  (* Phase 2: deadline enforcement.  A 1 ms budget on the Kendall rank
     aggregation over the 60-key database cannot be met (the cache is
     bypassed per request), so the scheduler's cooperative cancellation
     must turn every evaluation into a 504. *)
  let dl_clients = if !Harness.quick then 16 else 64 in
  let dl_shots, _ =
    fleet dl_clients 1 (fun _ _ ->
        post_query port1
          ~params:"?db=big&deadline_ms=1&cache=false"
          "rank metric=kendall\n")
  in
  let timed_out = count_status dl_shots 504 in
  Harness.note "deadline: %d/%d requests hit the 1 ms budget (504)" timed_out
    dl_clients;
  let sched1 = Scheduler.stats (Daemon.scheduler d1) in
  Daemon.stop d1;

  (* Phase 3: backpressure.  Two workers, a two-slot queue and a cache
     bypass make the burst arrive faster than it drains: the bounded queue
     must shed the overflow with 429, never block or crash. *)
  let d2 =
    Daemon.start
      {
        Daemon.default_config with
        dbs = [ ("small", small) ];
        jobs = 2;
        max_inflight = 2;
        max_queue = 2;
        max_connections = 256;
        access_log = false;
        (* Pin the continuous monitor (a later experiment's subject) off:
           this experiment isolates the serving fabric itself, and its
           committed baselines predate the sampler. *)
        monitor_interval = 0.;
      }
  in
  let port2 = Daemon.port d2 in
  let bp_shots, bp_wall =
    fleet clients 1 (fun _ _ ->
        post_query port2 ~params:"?cache=false" "topk k=8 metric=footrule\n")
  in
  let bp_ok = count_status bp_shots 200 in
  let bp_rejected = count_status bp_shots 429 in
  let metrics_text =
    snd (request port2 ~meth:"GET" ~path:"/metrics" ~body:"")
  in
  let rejected_metric = metric_value metrics_text "serve_rejected_total" in
  let deadline_metric =
    metric_value metrics_text "serve_deadline_exceeded_total"
  in
  let sched2 = Scheduler.stats (Daemon.scheduler d2) in
  Daemon.stop d2;
  Harness.note
    "backpressure: burst of %d -> %d served, %d rejected 429 in %.2f s \
     (/metrics: serve_rejected_total=%.0f, serve_deadline_exceeded_total=%.0f)"
    clients bp_ok bp_rejected bp_wall rejected_metric deadline_metric;

  let sched_json (s : Scheduler.stats) =
    Json.Obj
      [
        ("admitted", Json.Int s.Scheduler.admitted);
        ("completed", Json.Int s.Scheduler.completed);
        ("rejected_queue_full", Json.Int s.Scheduler.rejected_queue_full);
        ("rejected_overload", Json.Int s.Scheduler.rejected_overload);
        ("deadline_exceeded", Json.Int s.Scheduler.deadline_exceeded);
      ]
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e27_serve");
        ( "workload",
          Json.Str
            "loopback HTTP fleet against POST /query on an in-process daemon"
        );
        ("clients", Json.Int clients);
        ("requests_per_client", Json.Int per_client);
        ( "saturation",
          Json.Obj
            [
              ("requests", Json.Int (clients * per_client));
              ("completed_200", Json.Int ok);
              ("wall_s", Json.Float wall);
              ("throughput_rps", Json.Float throughput);
              ("p50_ms", Json.Float (1000. *. p50));
              ("p90_ms", Json.Float (1000. *. p90));
              ("p99_ms", Json.Float (1000. *. p99));
              ("scheduler", sched_json sched1);
            ] );
        ( "deadline",
          Json.Obj
            [
              ("requests", Json.Int dl_clients);
              ("deadline_ms", Json.Int 1);
              ("timed_out_504", Json.Int timed_out);
            ] );
        ( "backpressure",
          Json.Obj
            [
              ("burst", Json.Int clients);
              ("completed_200", Json.Int bp_ok);
              ("rejected_429", Json.Int bp_rejected);
              ("wall_s", Json.Float bp_wall);
              ("metrics_serve_rejected_total", Json.Float rejected_metric);
              ( "metrics_serve_deadline_exceeded_total",
                Json.Float deadline_metric );
              ("scheduler", sched_json sched2);
            ] );
      ]
  in
  let oc = open_out "BENCH_SERVE.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "serving sweep written to BENCH_SERVE.json"
