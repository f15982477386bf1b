(* Structured logging: leveled JSON events, one line per event, with the
   ambient request id attached automatically.  Two sinks: stderr (optional)
   and a bounded in-memory ring the daemon exposes for debugging.

   The subsystem is independent of the [Obs] tracing switch — the access
   log must keep flowing with tracing collapsed to its cheap path — but it
   shares the cost model: an event below the configured level costs one
   atomic load and a branch, and field lists are built by closures so
   nothing is allocated for suppressed events. *)

module Ring = Consensus_util.Ring

type level = Debug | Info | Warn | Error

let level_to_int = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_of_int = function 0 -> Debug | 1 -> Info | 2 -> Warn | _ -> Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let min_level = Atomic.make (level_to_int Info)
let set_level l = Atomic.set min_level (level_to_int l)
let level () = level_of_int (Atomic.get min_level)
let enabled l = level_to_int l >= Atomic.get min_level

(* ---------- events ---------- *)

type event = {
  ev_ts : float; (* Unix time of emission *)
  ev_level : level;
  ev_name : string;
  ev_request : string option;
  ev_fields : (string * Json.t) list;
}

let event_json e =
  let base =
    [
      ("ts", Json.Float e.ev_ts);
      ("level", Json.Str (level_to_string e.ev_level));
      ("event", Json.Str e.ev_name);
    ]
  in
  let req =
    match e.ev_request with
    | None -> []
    | Some id -> [ ("request", Json.Str id) ]
  in
  Json.Obj (base @ req @ e.ev_fields)

let render e = Json.to_string (event_json e)

(* ---------- sinks ---------- *)

let stderr_flag = Atomic.make true
let set_stderr b = Atomic.set stderr_flag b

(* One lock per sink: the ring never blocks on stderr I/O and vice versa;
   the rendered line is built before either lock is taken. *)
let stderr_lock = Mutex.create ()

let write_stderr line =
  Mutex.lock stderr_lock;
  prerr_string (line ^ "\n");
  flush stderr;
  Mutex.unlock stderr_lock

(* The most recent events, served at /debug/log.  Writers are
   request-rate, not span-rate, so the ring's lock is not contended. *)
let ring_capacity = 1024

let ring =
  Ring.create ring_capacity
    { ev_ts = 0.; ev_level = Debug; ev_name = ""; ev_request = None; ev_fields = [] }

let recent ?limit () =
  List.rev (Ring.fold ?limit ring (fun acc e -> e :: acc) [])

let reset () = Ring.clear ring

(* ---------- emission ---------- *)

let emit ?ctx lvl name fields =
  if enabled lvl then begin
    let request =
      match ctx with
      | Some c -> Some (Context.id c)
      | None -> Context.current_id ()
    in
    let e =
      {
        ev_ts = Unix.gettimeofday ();
        ev_level = lvl;
        ev_name = name;
        ev_request = request;
        ev_fields = fields ();
      }
    in
    Ring.push ring e;
    if Atomic.get stderr_flag then write_stderr (render e)
  end

let no_fields () = []
let debug ?ctx ?(fields = no_fields) name = emit ?ctx Debug name fields
let info ?ctx ?(fields = no_fields) name = emit ?ctx Info name fields
let warn ?ctx ?(fields = no_fields) name = emit ?ctx Warn name fields
let error ?ctx ?(fields = no_fields) name = emit ?ctx Error name fields
