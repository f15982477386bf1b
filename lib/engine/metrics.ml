type stage = {
  name : string;
  mutable calls : int;
  mutable tasks : int;
  mutable chunks : int;
  mutable seq_calls : int;
  mutable by_caller : int;
  mutable by_worker : int;
  mutable wall : float;
}

type t = { mutex : Mutex.t; stages : (string, stage) Hashtbl.t }

let create () = { mutex = Mutex.create (); stages = Hashtbl.create 16 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t ~stage ~tasks ~chunks ~seq ~by_caller ~by_worker ~wall =
  with_lock t (fun () ->
      let s =
        match Hashtbl.find_opt t.stages stage with
        | Some s -> s
        | None ->
            let s =
              {
                name = stage;
                calls = 0;
                tasks = 0;
                chunks = 0;
                seq_calls = 0;
                by_caller = 0;
                by_worker = 0;
                wall = 0.;
              }
            in
            Hashtbl.add t.stages stage s;
            s
      in
      s.calls <- s.calls + 1;
      s.tasks <- s.tasks + tasks;
      s.chunks <- s.chunks + chunks;
      if seq then s.seq_calls <- s.seq_calls + 1;
      s.by_caller <- s.by_caller + by_caller;
      s.by_worker <- s.by_worker + by_worker;
      s.wall <- s.wall +. wall)

let snapshot t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ s acc -> { s with name = s.name } :: acc) t.stages [])
  |> List.sort (fun a b -> compare a.name b.name)

let reset t = with_lock t (fun () -> Hashtbl.reset t.stages)

let total_wall t =
  snapshot t |> List.fold_left (fun acc s -> acc +. s.wall) 0.

let pp ppf t =
  let stages = snapshot t in
  if stages = [] then Format.fprintf ppf "engine: no parallel stages recorded@."
  else begin
    Format.fprintf ppf "%-24s %6s %8s %7s %5s %9s %9s %10s@." "stage" "calls"
      "tasks" "chunks" "seq" "by-caller" "by-worker" "wall (ms)";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-24s %6d %8d %7d %5d %9d %9d %10.2f@." s.name
          s.calls s.tasks s.chunks s.seq_calls s.by_caller s.by_worker
          (s.wall *. 1000.))
      stages
  end

(* Emitted through the shared [Consensus_util.Json] builder: stage names are
   caller-supplied strings and must be escaped properly (a '"' in a stage
   label would otherwise produce invalid JSON). *)
let to_json t =
  let module J = Consensus_util.Json in
  let stage_json s =
    J.Obj
      [
        ("calls", J.Int s.calls);
        ("tasks", J.Int s.tasks);
        ("chunks", J.Int s.chunks);
        ("seq_calls", J.Int s.seq_calls);
        ("by_caller", J.Int s.by_caller);
        ("by_worker", J.Int s.by_worker);
        ("wall_ms", J.Float (s.wall *. 1000.));
      ]
  in
  J.to_string (J.Obj (snapshot t |> List.map (fun s -> (s.name, stage_json s))))
