(* Keep-alive-aware HTTP/1.1 client over loopback.

   Requests never ask for [Connection: close]: the socket is reused whenever
   the response allows it (HTTP/1.1 without [Connection: close]), and a
   fresh connection is opened otherwise.  Each request reports the client
   phase timestamps the benchmark's spans are built from. *)

type conn = {
  port : int;
  mutable fd : Unix.file_descr option;
  mutable opened : int;  (** connections opened so far *)
  chunk : Bytes.t;
}

type reply = {
  status : int;
  body : string;
  reused : bool;  (** served on a socket kept from an earlier request *)
  t_conn : float;  (** connected (= start when the socket was reused) *)
  t_sent : float;  (** last request byte written *)
  t_first : float;  (** first response byte read *)
  t_last : float;  (** last response byte read *)
}

exception Closed
(* The peer closed the connection before sending any response byte. *)

let create port = { port; fd = None; opened = 0; chunk = Bytes.create 65536 }

let close c =
  match c.fd with
  | None -> ()
  | Some fd ->
      c.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let connect c =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  c.fd <- Some fd;
  c.opened <- c.opened + 1;
  fd

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go from

(* Header value by case-insensitive name, from the raw header block. *)
let header headers name =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i)) = name
        ->
          Some
            (String.lowercase_ascii
               (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
      | _ -> None)
    (String.split_on_char '\n' headers)

(* Read one response from [fd].  Returns (status, body, keep_alive,
   t_first, t_last). *)
let read_response c fd =
  let buf = Buffer.create 4096 in
  let t_first = ref 0. in
  let read_more () =
    let n = Unix.read fd c.chunk 0 (Bytes.length c.chunk) in
    if n > 0 then begin
      if !t_first = 0. then t_first := Unix.gettimeofday ();
      Buffer.add_subbytes buf c.chunk 0 n
    end;
    n
  in
  let rec head () =
    let s = Buffer.contents buf in
    let i = find_sub s "\r\n\r\n" (max 0 (String.length s - 65536)) in
    if i >= 0 then (s, i)
    else if read_more () = 0 then raise Closed
    else head ()
  in
  let s, i = head () in
  let headers = String.sub s 0 i in
  let status =
    match String.split_on_char ' ' headers with
    | _ :: code :: _ -> (
        match int_of_string_opt code with Some n -> n | None -> 0)
    | _ -> 0
  in
  let http10 = String.length headers >= 8 && String.sub headers 0 8 = "HTTP/1.0" in
  let keep_alive =
    match header headers "connection" with
    | Some "close" -> false
    | Some "keep-alive" -> true
    | _ -> not http10
  in
  let body_start = i + 4 in
  match header headers "content-length" with
  | Some v ->
      let len = int_of_string v in
      while Buffer.length buf < body_start + len do
        if read_more () = 0 then failwith "response body truncated"
      done;
      let body = Buffer.sub buf body_start len in
      (status, body, keep_alive, !t_first, Unix.gettimeofday ())
  | None ->
      (* No framing: the body runs to end of stream. *)
      while read_more () > 0 do () done;
      let body = Buffer.sub buf body_start (Buffer.length buf - body_start) in
      (status, body, false, !t_first, Unix.gettimeofday ())

let rec request ?(retry = true) c ~meth ~path ~body ~t_start =
  let reused, fd, t_conn =
    match c.fd with
    | Some fd -> (true, fd, t_start)
    | None ->
        let fd = connect c in
        (false, fd, Unix.gettimeofday ())
  in
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
      meth path (String.length body) body
  in
  match
    write_all fd req;
    let t_sent = Unix.gettimeofday () in
    (t_sent, read_response c fd)
  with
  | t_sent, (status, body, keep_alive, t_first, t_last) ->
      if not keep_alive then close c;
      { status; body; reused; t_conn; t_sent; t_first; t_last }
  | exception (Closed | Unix.Unix_error _) when reused && retry ->
      (* The server dropped an idle kept-alive socket: reconnect once. *)
      close c;
      request ~retry:false c ~meth ~path ~body ~t_start
  | exception e ->
      close c;
      raise e

let get c path =
  let r = request c ~meth:"GET" ~path ~body:"" ~t_start:(Unix.gettimeofday ()) in
  (r.status, r.body)
