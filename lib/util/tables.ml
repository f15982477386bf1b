type align = Left | Right

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : string list list;
}

let create ?title cols =
  { title; headers = List.map fst cols; aligns = List.map snd cols; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Tables.add_row: cell count mismatch";
  t.rows <- row :: t.rows

let add_rowf t fmt =
  Format.kasprintf
    (fun s -> add_row t (String.split_on_char '|' s |> List.map String.trim))
    fmt

(* Columns are as wide as their cells' code points, not their UTF-8 bytes,
   so a cell holding "Δ" lines up with ASCII ones: every byte except a
   continuation byte (0b10xxxxxx) starts a code point. *)
let width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad align w s =
  let n = width s in
  if n >= w then s
  else
    let fill = String.make (w - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (width c)) row)
    all;
  let render_row row =
    List.mapi (fun i c -> pad (List.nth t.aligns i) widths.(i) c) row
    |> String.concat "  "
  in
  let rule =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  let buf = Buffer.create 256 in
  (match t.title with
  | Some s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (render_row t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
