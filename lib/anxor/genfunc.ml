open Consensus_poly
module Obs = Consensus_obs.Obs

type 'p ops = {
  const : float -> 'p;
  add : 'p -> 'p -> 'p;
  mul : 'p -> 'p -> 'p;
  scale : float -> 'p -> 'p;
  one : 'p;
}

(* Per-operator cost attribution of the §3.3 generating-function engine:
   one histogram sample per tree evaluation, one counter tick per visited
   node.  Both are single-branch no-ops while [Obs] is disabled. *)
let gf_evals =
  Obs.Counter.make ~help:"Generating-function tree evaluations" "anxor_gf_evals_total"

let gf_nodes =
  Obs.Counter.make
    ~help:"And/xor tree nodes visited by generating-function evaluations"
    "anxor_gf_nodes_total"

let gf_seconds =
  Obs.Histogram.make
    ~help:"Wall time of a single generating-function tree evaluation"
    "anxor_genfunc_seconds"

(* Explicit evaluation frames: the post-order walk keeps its state on the
   heap, so arbitrarily deep trees (10^5 levels and beyond) evaluate without
   touching the OCaml stack.  A frame is a
   single mutable record (the node id tells us the kind), children come from
   the CSR range, and the leaf callback receives the depth-first leaf
   index.  Fold order is left-to-right [mul] under [And], left-to-right
   [add]/[scale] seeded with the residual (clamped at 0) under [Xor]. *)
type 'p frame = {
  node : int;
  mutable next : int;  (** next child position to visit *)
  mutable cur : float;  (** xor edge probability of the child in flight *)
  mutable acc : 'p;
}

let eval ops s (a : Arena.t) =
  Obs.Counter.incr gf_evals;
  Obs.Histogram.time gf_seconds @@ fun () ->
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("leaves", Obs.Int (Arena.num_leaves a));
        ("nodes", Obs.Int (Arena.num_nodes a));
        ("depth", Obs.Int (Arena.depth a));
      ])
    "anxor.genfunc.eval"
  @@ fun () ->
  let result = ref None in
  let stack = ref [] in
  let deliver v =
    match !stack with
    | [] -> result := Some v
    | f :: _ ->
        if Char.code (Bytes.unsafe_get a.kinds f.node) = Arena.kind_and then
          f.acc <- ops.mul f.acc v
        else f.acc <- ops.add f.acc (ops.scale f.cur v)
  in
  let enter n =
    Obs.Counter.incr gf_nodes;
    let k = Char.code (Bytes.unsafe_get a.kinds n) in
    if k = Arena.kind_leaf then deliver (s a.leaf_ix.(n))
    else if k = Arena.kind_and then
      stack := { node = n; next = 0; cur = 0.; acc = ops.one } :: !stack
    else begin
      let start = a.child_start.(n) and count = a.child_count.(n) in
      let total = ref 0. in
      for i = start to start + count - 1 do
        total := !total +. a.eprob.(a.children.(i))
      done;
      stack :=
        { node = n; next = 0; cur = 0.; acc = ops.const (Float.max 0. (1. -. !total)) }
        :: !stack
    end
  in
  enter a.root;
  while !result = None do
    match !stack with
    | [] -> assert false
    | f :: rest ->
        let n = f.node in
        if f.next < a.child_count.(n) then begin
          let c = a.children.(a.child_start.(n) + f.next) in
          f.next <- f.next + 1;
          if Char.code (Bytes.unsafe_get a.kinds n) = Arena.kind_xor then
            f.cur <- a.eprob.(c);
          enter c
        end
        else begin
          stack := rest;
          deliver f.acc
        end
  done;
  Option.get !result

let univariate ?trunc s a =
  let mul =
    match trunc with None -> Poly1.mul | Some d -> Poly1.mul_trunc d
  in
  eval
    { const = Poly1.const; add = Poly1.add; mul; scale = Poly1.scale; one = Poly1.one }
    s a

let size_distribution a = univariate (fun _ -> Poly1.x) a

let subset_size_distribution mem a =
  univariate (fun i -> if mem i then Poly1.x else Poly1.one) a

let bipoly ?trunc s a =
  eval
    {
      const = Bipoly.const;
      add = Bipoly.add;
      mul = Bipoly.mul ?trunc;
      scale = Bipoly.scale;
      one = Bipoly.one;
    }
    s a
