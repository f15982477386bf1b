(* In-memory span recorder.  One recorder per domain, so recording takes no
   lock; spans are written out once, when the run ends.  A span is a named
   interval with an optional parent (the span that caused it) and a free-form
   tag; the spans of one HTTP operation share the operation's request id in
   their tags. *)

type t = {
  worker : int;
  mutable len : int;
  mutable name : string array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable tag : string array;
}

let create ~worker =
  let cap = 1024 in
  {
    worker;
    len = 0;
    name = Array.make cap "";
    parent = Array.make cap (-1);
    t0 = Array.make cap 0.;
    t1 = Array.make cap 0.;
    tag = Array.make cap "";
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- extend t.name "";
  t.parent <- extend t.parent (-1);
  t.t0 <- extend t.t0 0.;
  t.t1 <- extend t.t1 0.;
  t.tag <- extend t.tag ""

(* Record a finished span; returns its id, usable as a later span's parent. *)
let add t ?(parent = -1) ?(tag = "") name t0 t1 =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.t0.(id) <- t0;
  t.t1.(id) <- t1;
  t.tag.(id) <- tag;
  t.len <- id + 1;
  id

(* Time [f ()] as a span named [name]. *)
let time t ?tag name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ignore (add t ?tag name t0 (Unix.gettimeofday ()));
  r

(* One tab-separated line per span: worker, id, parent, name, start, end,
   tag.  Times are absolute seconds. *)
let write oc t =
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\t%s\n" t.worker i
      t.parent.(i) t.name.(i) t.t0.(i) t.t1.(i) t.tag.(i)
  done
