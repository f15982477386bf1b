type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_to_buffer buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  escape_to_buffer buf s;
  Buffer.contents buf

let number_of_float f =
  if not (Float.is_finite f) then "null"
  else begin
    (* Shortest spelling that round-trips; fall back to full precision. *)
    let short = Printf.sprintf "%.12g" f in
    let s = if float_of_string short = f then short else Printf.sprintf "%.17g" f in
    (* "1e-06" and "1.5" are valid JSON; "nan"/"inf" were handled above. *)
    s
  end

let rec to_buffer buf t =
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (number_of_float f)
  | Str s ->
      Buffer.add_char buf '"';
      escape_to_buffer buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_to_buffer buf name;
          Buffer.add_string buf "\":";
          to_buffer buf value)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

(* ---------- parsing (RFC 8259) ---------- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else error (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> error "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      let c = s.[!pos] in
      if Char.code c < 0x20 then error "control character in string";
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then error "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              let cp = hex4 () in
              if cp >= 0xDC00 && cp <= 0xDFFF then error "lone low surrogate"
              else if cp >= 0xD800 && cp <= 0xDBFF then begin
                if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                then error "unpaired high surrogate";
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then
                  error "unpaired high surrogate";
                Buffer.add_utf_8_uchar buf
                  (Uchar.of_int (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)))
              end
              else Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
          | _ -> error "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  (* number = [ - ] ( 0 / 1-9 *DIGIT ) [ . 1*DIGIT ] [ (e/E) [+/-] 1*DIGIT ] *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then error "expected digit"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    let integral = ref true in
    if peek () = '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      integral := false;
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    match (!integral, int_of_string_opt text) with
    | true, Some i -> Int i
    | _ -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                members ((key, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((key, v) :: acc))
            | _ -> error "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                List (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ when !pos >= n -> error "unexpected end of input"
    | _ -> error "unexpected character"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
