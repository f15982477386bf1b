exception Parse_error of int * string

(* ---------- chunked character source ----------

   One pass, no token list: the tokenizer pulls characters straight from the
   source and hands atoms/parens to the grammar loop below, which emits
   open/leaf/close events into a sink.  A string is a single chunk; a channel
   is refilled in 64 KiB chunks, so resident memory stays bounded by the
   chunk plus whatever the sink keeps. *)

type source = {
  mutable chunk : string;
  mutable pos : int; (* cursor within [chunk] *)
  mutable limit : int;
  mutable base : int; (* global offset of chunk start, for error positions *)
  refill : unit -> string option;
}

let source_of_string s =
  { chunk = s; pos = 0; limit = String.length s; base = 0; refill = (fun () -> None) }

let chunk_size = 65536

let source_of_channel ic =
  let buf = Bytes.create chunk_size in
  let refill () =
    let n = input ic buf 0 chunk_size in
    if n = 0 then None else Some (Bytes.sub_string buf 0 n)
  in
  { chunk = ""; pos = 0; limit = 0; base = 0; refill }

(* Returns false at end of input. *)
let rec ensure src =
  if src.pos < src.limit then true
  else begin
    match src.refill () with
    | None -> false
    | Some chunk ->
        src.base <- src.base + src.limit;
        src.chunk <- chunk;
        src.pos <- 0;
        src.limit <- String.length chunk;
        ensure src
  end

let gpos src = src.base + src.pos
let peek src = src.chunk.[src.pos] (* valid only after [ensure] *)
let advance src = src.pos <- src.pos + 1

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_delim c = c = '(' || c = ')' || c = ';' || is_ws c

(* Skip whitespace and ; line comments.  Returns false at end of input. *)
let rec skip_ws src =
  if not (ensure src) then false
  else begin
    let c = peek src in
    if is_ws c then begin
      advance src;
      skip_ws src
    end
    else if c = ';' then begin
      let rec to_eol () =
        if ensure src && peek src <> '\n' then begin
          advance src;
          to_eol ()
        end
      in
      to_eol ();
      skip_ws src
    end
    else true
  end

(* Read an atom starting at the cursor.  Atoms can span chunk boundaries, so
   the spanning (rare) case accumulates the pieces into the scratch buffer —
   each piece is saved {e before} [ensure] swaps the chunk out. *)
let read_atom src scratch =
  Buffer.clear scratch;
  let rec piece first =
    let start = src.pos in
    while src.pos < src.limit && not (is_delim src.chunk.[src.pos]) do
      advance src
    done;
    let ended_in_chunk = src.pos < src.limit in
    if ended_in_chunk && first then String.sub src.chunk start (src.pos - start)
    else begin
      Buffer.add_substring scratch src.chunk start (src.pos - start);
      if (not ended_in_chunk) && ensure src then piece false
      else Buffer.contents scratch
    end
  in
  piece true

(* Classify a node-head atom without allocating in the common case: returns
   0 [leaf] / 1 [and] / 2 [xor] / 3 other, consuming the atom.  Only the rare
   chunk-spanning atom touches the scratch buffer. *)
let classify_node_atom src scratch =
  let start = src.pos in
  while
    src.pos < src.limit && not (is_delim (String.unsafe_get src.chunk src.pos))
  do
    advance src
  done;
  if src.pos < src.limit then begin
    let c = src.chunk in
    let len = src.pos - start in
    if
      len = 4
      && String.unsafe_get c start = 'l'
      && String.unsafe_get c (start + 1) = 'e'
      && String.unsafe_get c (start + 2) = 'a'
      && String.unsafe_get c (start + 3) = 'f'
    then 0
    else if
      len = 3
      && String.unsafe_get c start = 'a'
      && String.unsafe_get c (start + 1) = 'n'
      && String.unsafe_get c (start + 2) = 'd'
    then 1
    else if
      len = 3
      && String.unsafe_get c start = 'x'
      && String.unsafe_get c (start + 1) = 'o'
      && String.unsafe_get c (start + 2) = 'r'
    then 2
    else 3
  end
  else begin
    Buffer.clear scratch;
    Buffer.add_substring scratch src.chunk start (src.pos - start);
    let rec more () =
      if ensure src then begin
        let st = src.pos in
        while src.pos < src.limit && not (is_delim src.chunk.[src.pos]) do
          advance src
        done;
        Buffer.add_substring scratch src.chunk st (src.pos - st);
        if src.pos >= src.limit then more ()
      end
    in
    more ();
    match Buffer.contents scratch with
    | "leaf" -> 0
    | "and" -> 1
    | "xor" -> 2
    | _ -> 3
  end

let float_atom pos a =
  match float_of_string_opt a with
  | Some f -> f
  | None -> raise (Parse_error (pos, Printf.sprintf "expected a number, got %S" a))

(* A leaf value is a score: NaN has no place in the score order, so the
   rank sweep and the arena walk would rank it differently. *)
let value_atom pos a =
  let v = float_atom pos a in
  if Float.is_nan v then
    raise (Parse_error (pos, Printf.sprintf "a score must be a number, got %S" a));
  v

let int_atom pos a =
  match int_of_string_opt a with
  | Some i -> i
  | None -> raise (Parse_error (pos, Printf.sprintf "expected an integer, got %S" a))

(* ---------- grammar loop ----------

   Events are emitted into a sink; [prob] is the edge probability carried by
   an xor edge onto the node it wraps ([None] under an and node / at the
   root).  The sink may raise [Invalid_argument] (probability and builder
   validation); the caller converts it to a [Parse_error] at the position
   given to the failing event — for xor-mass validation that is the xor
   node's opening paren, matching the old recursive parser. *)

type 'n sink = {
  s_open_and : pos:int -> prob:float option -> unit;
  s_open_xor : pos:int -> prob:float option -> unit;
  s_leaf : pos:int -> prob:float option -> key:int -> value:float -> unit;
  s_close : pos:int -> unit; (* pos = the node's opening paren *)
  s_finish : unit -> 'n;
}

(* Parser context: inside which construct the cursor currently sits. *)
type ctx =
  | C_and of int (* opening-paren position *)
  | C_xor of int
  | C_edge of { xor_pos : int; prob : float; mutable seen : bool }

let run_parser src sink =
  let scratch = Buffer.create 64 in
  let ctxs = ref [] in
  let root_done = ref false in
  (* Parse one node header starting at '(' (already consumed, at [lpos]),
     with [prob] carried from an enclosing xor edge.  Returns true when the
     node completed (a leaf); and/xor push a context and complete at ')'. *)
  (* [try]/[with] inline (not {!guard}) in the per-node paths: the streaming
     loader's allocation budget has no room for a closure per node. *)
  let bad_node lpos = raise (Parse_error (lpos, "expected leaf, and, or xor")) in
  let parse_node lpos prob =
    if not (skip_ws src) then raise (Parse_error (0, "unexpected end of input"));
    if peek src = '(' || peek src = ')' then bad_node lpos;
    match classify_node_atom src scratch with
    | 0 ->
        (* shape first ((leaf <atom> <atom>)), conversions after: errors
           match the old pattern-matching parser *)
        if not (skip_ws src) then bad_node lpos;
        if peek src = '(' || peek src = ')' then bad_node lpos;
        let kpos = gpos src in
        let k = read_atom src scratch in
        if not (skip_ws src) then bad_node lpos;
        if peek src = '(' || peek src = ')' then bad_node lpos;
        let vpos = gpos src in
        let v = read_atom src scratch in
        if not (skip_ws src) || peek src <> ')' then bad_node lpos;
        advance src;
        let key = int_atom kpos k in
        let value = value_atom vpos v in
        (try sink.s_leaf ~pos:lpos ~prob ~key ~value
         with Invalid_argument msg -> raise (Parse_error (lpos, msg)));
        true
    | 1 ->
        (try sink.s_open_and ~pos:lpos ~prob
         with Invalid_argument msg -> raise (Parse_error (lpos, msg)));
        ctxs := C_and lpos :: !ctxs;
        false
    | 2 ->
        (try sink.s_open_xor ~pos:lpos ~prob
         with Invalid_argument msg -> raise (Parse_error (lpos, msg)));
        ctxs := C_xor lpos :: !ctxs;
        false
    | _ -> bad_node lpos
  in
  (* After a node completes: it either fills the enclosing edge, or (at the
     top level) ends the tree. *)
  let node_done () =
    match !ctxs with
    | C_edge e :: _ -> e.seen <- true
    | _ -> if !ctxs = [] then root_done := true
  in
  let continue_ = ref true in
  while !continue_ do
    let have = skip_ws src in
    match !ctxs with
    | [] ->
        if !root_done then begin
          if have then
            raise (Parse_error (gpos src, "trailing input after tree"));
          continue_ := false
        end
        else if not have then raise (Parse_error (0, "unexpected end of input"))
        else begin
          let c = peek src in
          let pos = gpos src in
          if c = '(' then begin
            advance src;
            if parse_node pos None then node_done ()
          end
          else if c = ')' then raise (Parse_error (pos, "unexpected )"))
          else begin
            let a = read_atom src scratch in
            raise (Parse_error (pos, Printf.sprintf "unexpected atom %S" a))
          end
        end
    | C_and and_pos :: rest ->
        if not have then
          raise (Parse_error (0, "unexpected end of input, missing )"));
        let c = peek src in
        let pos = gpos src in
        if c = ')' then begin
          advance src;
          (try sink.s_close ~pos:and_pos
           with Invalid_argument msg -> raise (Parse_error (and_pos, msg)));
          ctxs := rest;
          node_done ()
        end
        else if c = '(' then begin
          advance src;
          if parse_node pos None then node_done ()
        end
        else begin
          let a = read_atom src scratch in
          raise (Parse_error (pos, Printf.sprintf "unexpected atom %S" a))
        end
    | C_xor xor_pos :: rest ->
        if not have then
          raise (Parse_error (0, "unexpected end of input, missing )"));
        let c = peek src in
        let pos = gpos src in
        if c = ')' then begin
          advance src;
          (try sink.s_close ~pos:xor_pos
           with Invalid_argument msg -> raise (Parse_error (xor_pos, msg)));
          ctxs := rest;
          node_done ()
        end
        else if c = '(' then begin
          advance src;
          (* an xor edge: ( <prob> <tree> ) *)
          if not (skip_ws src) then
            raise (Parse_error (0, "unexpected end of input in xor edge"));
          if peek src = '(' || peek src = ')' then
            raise (Parse_error (pos, "expected (prob tree) edge"));
          let ppos = gpos src in
          let p = float_atom ppos (read_atom src scratch) in
          ctxs := C_edge { xor_pos; prob = p; seen = false } :: !ctxs
        end
        else begin
          ignore (read_atom src scratch);
          raise (Parse_error (pos, "expected (prob tree) edge"))
        end
    | C_edge e :: rest ->
        if not have then
          raise (Parse_error (0, "unexpected end of input in xor edge"));
        let c = peek src in
        let pos = gpos src in
        if e.seen then begin
          if c = ')' then begin
            advance src;
            ctxs := rest;
            node_done ()
          end
          else raise (Parse_error (pos, "expected ) after xor edge"))
        end
        else if c = '(' then begin
          advance src;
          if parse_node pos (Some e.prob) then node_done ()
        end
        else if c = ')' then raise (Parse_error (pos, "unexpected )"))
        else begin
          let a = read_atom src scratch in
          raise (Parse_error (pos, Printf.sprintf "unexpected atom %S" a))
        end
  done;
  sink.s_finish ()

let run src sink =
  match run_parser src sink with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at %d: %s" pos msg)

(* ---------- tree sink ----------

   Builds the pointer tree iteratively: one frame per open node accumulating
   (prob, child) pairs in reverse.  [Tree.xor] runs at close (probability
   validation at the xor node's position, like the old parser); a completed
   child is delivered to its parent frame. *)

let tree_sink () =
  (* frame: (edge prob carried onto this node, is-xor, reversed children) *)
  let stack : (float option * bool * (float * Db.alt Tree.t) list ref) list ref =
    ref []
  in
  let result = ref None in
  let deliver prob t =
    match !stack with
    | [] -> result := Some t
    | (_, _, acc) :: _ -> acc := (Option.value prob ~default:1., t) :: !acc
  in
  {
    s_open_and = (fun ~pos:_ ~prob -> stack := (prob, false, ref []) :: !stack);
    s_open_xor = (fun ~pos:_ ~prob -> stack := (prob, true, ref []) :: !stack);
    s_leaf =
      (fun ~pos:_ ~prob ~key ~value -> deliver prob (Tree.leaf { Db.key; value }));
    s_close =
      (fun ~pos:_ ->
        match !stack with
        | [] -> invalid_arg "Sexp_io: close without open"
        | (prob, is_xor, acc) :: rest ->
            stack := rest;
            (* [acc] is reversed; note List.map is not tail-recursive, a
               million-child node must use rev / rev_map only *)
            let t =
              if is_xor then Tree.xor (List.rev !acc)
              else Tree.and_ (List.rev_map snd !acc)
            in
            deliver prob t);
    s_finish =
      (fun () ->
        match !result with
        | Some t -> t
        | None -> raise (Parse_error (0, "unexpected end of input")));
  }

let parse s = run (source_of_string s) (tree_sink ())

let parse_exn s =
  match parse s with Ok t -> t | Error msg -> invalid_arg ("Sexp_io.parse: " ^ msg)

(* ---------- arena sink ----------

   Streams events straight into [Arena.Builder]: no token list, no
   intermediate tree — resident memory is the arena plus the 64 KiB chunk. *)

let arena_sink ?initial_capacity () =
  let b = Arena.Builder.create ?initial_capacity () in
  {
    s_open_and = (fun ~pos:_ ~prob -> Arena.Builder.open_and ?prob b);
    s_open_xor = (fun ~pos:_ ~prob -> Arena.Builder.open_xor ?prob b);
    s_leaf = (fun ~pos:_ ~prob ~key ~value -> Arena.Builder.leaf ?prob b ~key ~value);
    s_close = (fun ~pos:_ -> Arena.Builder.close b);
    s_finish = (fun () -> Arena.Builder.finish b);
  }

let parse_stream ?initial_capacity ic =
  run (source_of_channel ic) (arena_sink ?initial_capacity ())

let db_of_channel ?check ?initial_capacity ic =
  match parse_stream ?initial_capacity ic with
  | Error _ as e -> e
  | Ok arena -> (
      match Db.of_arena ?check arena with
      | db -> Ok db
      | exception Invalid_argument msg -> Error msg)

(* ---------- writer ----------

   Iterative: an explicit stack of print events, so arbitrarily deep trees
   render without OCaml-stack recursion.  Floats print as %.17g — enough
   digits for exact double round-trip, so [parse (to_string t)] re-reads the
   same bits the streaming parser would produce. *)

type witem =
  | W_tree of Db.alt Tree.t
  | W_edge of float * Db.alt Tree.t
  | W_str of string

let to_buffer buf (t : Db.alt Tree.t) =
  let stack = ref [ W_tree t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | item :: rest -> (
        stack := rest;
        match item with
        | W_str s -> Buffer.add_string buf s
        | W_tree (Tree.Leaf a) ->
            Printf.bprintf buf "(leaf %d %.17g)" a.Db.key a.Db.value
        | W_tree (Tree.And children) ->
            Buffer.add_string buf "(and";
            stack :=
              List.rev_append
                (List.fold_left
                   (fun acc c -> W_tree c :: W_str " " :: acc)
                   [] children)
                (W_str ")" :: !stack)
        | W_tree (Tree.Xor edges) ->
            Buffer.add_string buf "(xor";
            stack :=
              List.rev_append
                (List.fold_left
                   (fun acc (p, c) -> W_edge (p, c) :: acc)
                   [] edges)
                (W_str ")" :: !stack)
        | W_edge (p, c) ->
            Printf.bprintf buf " (%.17g " p;
            stack := W_tree c :: W_str ")" :: !stack)
  done

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

let db_of_string s =
  match parse s with
  | Error _ as e -> e
  | Ok tree -> (
      match Db.create tree with
      | db -> Ok db
      | exception Invalid_argument msg -> Error msg)

let db_to_string db = to_string (Db.tree db)
