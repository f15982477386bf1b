(* Flat int-indexed arena for and/xor trees.

   Structure-of-arrays twin of [Tree.t]: node kinds in one byte array, the
   child lists of all nodes concatenated into a single [children] array
   addressed by per-node [start, start+count) ranges (CSR layout), xor edge
   probabilities stored per child node, and leaf payloads in parallel
   [int]/[float] arrays indexed by depth-first leaf number.  Node ids are
   assigned in depth-first pre-order, so a node's children always carry
   larger ids and leaf ids increase left to right.

   Everything below walks the arrays with explicit stacks — no OCaml-stack
   recursion anywhere, so arbitrarily deep databases cannot overflow. *)

let prob_eps = 1e-9 (* keep in sync with Tree.prob_eps *)

type t = {
  kinds : Bytes.t; (* per node: 0 leaf, 1 and, 2 xor *)
  child_start : int array; (* per node: first index into [children] *)
  child_count : int array; (* per node: number of children *)
  children : int array; (* concatenated child node ids, in tree order *)
  eprob : float array;
      (* per node: probability of the xor edge above it (1.0 under an And
         node and for the root) *)
  leaf_ix : int array; (* per node: depth-first leaf index, or -1 *)
  leaf_key : int array; (* per leaf *)
  leaf_value : float array; (* per leaf *)
  root : int;
  num_leaves : int;
}

let kind_leaf = 0
let kind_and = 1
let kind_xor = 2

let num_nodes a = Bytes.length a.kinds
let num_leaves a = a.num_leaves
let root a = a.root
let kind a n = Bytes.unsafe_get a.kinds n |> Char.code
let is_leaf a n = kind a n = kind_leaf

(* ---------- growable builder ---------- *)

(* During construction children are chained through [next_sib] (first/last
   child per open node); [finish] repacks the links into the CSR arrays.
   Zero-probability xor edges are dropped like [Tree.xor] does: opening a
   child with [prob = 0.] under an xor node enters skip mode and everything
   up to the matching close is discarded. *)
module Builder = struct
  type b = {
    mutable kinds : Bytes.t;
    mutable eprob : float array;
    mutable parent : int array;
    mutable first_child : int array;
    mutable last_child : int array;
    mutable next_sib : int array;
    mutable leaf_ix : int array;
    mutable leaf_key : int array;
    mutable leaf_value : float array;
    mutable n : int; (* nodes allocated *)
    mutable leaves : int;
    (* stack of currently open nodes *)
    mutable open_stack : int array;
    mutable depth : int;
    mutable skip_depth : int; (* > 0 while inside a dropped zero-prob edge *)
    mutable root : int; (* -1 until the first top-level node appears *)
    mutable done_ : bool; (* the root node has been closed *)
  }

  type t = b

  let create ?(initial_capacity = 64) () =
    let cap = max 4 initial_capacity in
    {
      kinds = Bytes.create cap;
      eprob = Array.make cap 1.;
      parent = Array.make cap (-1);
      first_child = Array.make cap (-1);
      last_child = Array.make cap (-1);
      next_sib = Array.make cap (-1);
      leaf_ix = Array.make cap (-1);
      leaf_key = Array.make cap 0;
      leaf_value = Array.make cap 0.;
      n = 0;
      leaves = 0;
      open_stack = Array.make 16 (-1);
      depth = 0;
      skip_depth = 0;
      root = -1;
      done_ = false;
    }

  let grow_int a n =
    let a' = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 a' 0 n;
    a'

  let grow_float a n =
    let a' = Array.make (2 * Array.length a) 0. in
    Array.blit a 0 a' 0 n;
    a'

  let ensure_node b =
    if b.n >= Bytes.length b.kinds then begin
      let cap = 2 * Bytes.length b.kinds in
      let k = Bytes.create cap in
      Bytes.blit b.kinds 0 k 0 b.n;
      b.kinds <- k;
      b.eprob <- grow_float b.eprob b.n;
      b.parent <- grow_int b.parent b.n;
      b.first_child <- grow_int b.first_child b.n;
      b.last_child <- grow_int b.last_child b.n;
      b.next_sib <- grow_int b.next_sib b.n;
      b.leaf_ix <- grow_int b.leaf_ix b.n
    end

  let ensure_leaf b =
    if b.leaves >= Array.length b.leaf_key then begin
      b.leaf_key <- grow_int b.leaf_key b.leaves;
      b.leaf_value <- grow_float b.leaf_value b.leaves
    end

  let check_prob p =
    if not (Float.is_finite p) || p < 0. then
      invalid_arg "Tree.xor: edge probability must be a non-negative float"

  (* [prob] is mandatory information under an xor parent; [add_node] treats
     [None] as an and/top-level child.  Returns [-1] in skip mode. *)
  let add_node b kind ~prob =
    if b.done_ then invalid_arg "Arena.Builder: tree already complete";
    let parent = if b.depth = 0 then -1 else b.open_stack.(b.depth - 1) in
    (match parent with
    | -1 ->
        if b.root >= 0 then
          invalid_arg "Arena.Builder: trailing node after the root"
    | p ->
        if kind_leaf = Char.code (Bytes.get b.kinds p) then
          invalid_arg "Arena.Builder: leaves cannot have children");
    let under_xor =
      parent >= 0 && Char.code (Bytes.get b.kinds parent) = kind_xor
    in
    let prob =
      match (prob, under_xor) with
      | Some p, true ->
          check_prob p;
          p
      | None, true -> invalid_arg "Arena.Builder: xor child needs a probability"
      | (None | Some _), false -> 1.
      (* a prob on an and-child is ignored, the grammar never produces it *)
    in
    if under_xor && prob = 0. then -1 (* dropped edge: caller enters skip *)
    else begin
      ensure_node b;
      let id = b.n in
      b.n <- id + 1;
      Bytes.set b.kinds id (Char.chr kind);
      b.eprob.(id) <- prob;
      b.parent.(id) <- parent;
      b.first_child.(id) <- -1;
      b.last_child.(id) <- -1;
      b.next_sib.(id) <- -1;
      b.leaf_ix.(id) <- -1;
      (match parent with
      | -1 -> b.root <- id
      | p ->
          if b.first_child.(p) = -1 then b.first_child.(p) <- id
          else b.next_sib.(b.last_child.(p)) <- id;
          b.last_child.(p) <- id);
      id
    end

  let push_open b id =
    if b.depth >= Array.length b.open_stack then
      b.open_stack <- grow_int b.open_stack b.depth;
    b.open_stack.(b.depth) <- id;
    b.depth <- b.depth + 1

  let open_node b kind ?prob () =
    if b.skip_depth > 0 then b.skip_depth <- b.skip_depth + 1
    else begin
      let id = add_node b kind ~prob in
      if id = -1 then b.skip_depth <- 1 else push_open b id
    end

  let open_and ?prob b = open_node b kind_and ?prob ()
  let open_xor ?prob b = open_node b kind_xor ?prob ()

  let leaf ?prob b ~key ~value =
    if b.skip_depth > 0 then ()
    else begin
      let id = add_node b kind_leaf ~prob in
      if id >= 0 then begin
        ensure_leaf b;
        b.leaf_ix.(id) <- b.leaves;
        b.leaf_key.(b.leaves) <- key;
        b.leaf_value.(b.leaves) <- value;
        b.leaves <- b.leaves + 1;
        (* a top-level leaf is a complete single-node tree *)
        if b.depth = 0 then b.done_ <- true
      end
    end

  (* Closing an xor node validates the kept edges' total mass, mirroring
     [Tree.xor]. *)
  let close b =
    if b.skip_depth > 0 then b.skip_depth <- b.skip_depth - 1
    else begin
      if b.depth = 0 then invalid_arg "Arena.Builder.close: no open node";
      let id = b.open_stack.(b.depth - 1) in
      b.depth <- b.depth - 1;
      if Char.code (Bytes.get b.kinds id) = kind_xor then begin
        let total = ref 0. in
        let c = ref b.first_child.(id) in
        while !c >= 0 do
          total := !total +. b.eprob.(!c);
          c := b.next_sib.(!c)
        done;
        if !total > 1. +. prob_eps then
          invalid_arg
            (Printf.sprintf "Tree.xor: edge probabilities sum to %g > 1" !total)
      end;
      if b.depth = 0 then b.done_ <- true
    end

  let finish b =
    if not b.done_ then invalid_arg "Arena.Builder.finish: tree incomplete";
    let n = b.n in
    let kinds = Bytes.sub b.kinds 0 n in
    let child_start = Array.make n 0 in
    let child_count = Array.make n 0 in
    let eprob = Array.sub b.eprob 0 n in
    let leaf_ix = Array.sub b.leaf_ix 0 n in
    (* child slots = internal nodes' children = n - 1 minus dropped edges;
       count exactly by walking the sibling chains once *)
    let slots = ref 0 in
    for id = 0 to n - 1 do
      let c = ref b.first_child.(id) in
      let count = ref 0 in
      while !c >= 0 do
        incr count;
        c := b.next_sib.(!c)
      done;
      child_count.(id) <- !count;
      slots := !slots + !count
    done;
    let children = Array.make (max 1 !slots) (-1) in
    let next = ref 0 in
    for id = 0 to n - 1 do
      child_start.(id) <- !next;
      let c = ref b.first_child.(id) in
      while !c >= 0 do
        children.(!next) <- !c;
        incr next;
        c := b.next_sib.(!c)
      done
    done;
    {
      kinds;
      child_start;
      child_count;
      children;
      eprob;
      leaf_ix;
      leaf_key = Array.sub b.leaf_key 0 b.leaves;
      leaf_value = Array.sub b.leaf_value 0 b.leaves;
      root = b.root;
      num_leaves = b.leaves;
    }
end

(* ---------- conversion from / to trees ---------- *)

let of_tree ~key ~value tree =
  let b = Builder.create () in
  (* Explicit work stack of (edge probability option, pending tree) plus
     close markers. *)
  let stack = ref [ (None, `Tree tree) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (prob, item) :: rest -> (
        stack := rest;
        match item with
        | `Close -> Builder.close b
        | `Tree (Tree.Leaf a) -> Builder.leaf ?prob b ~key:(key a) ~value:(value a)
        | `Tree (Tree.And cs) ->
            Builder.open_and ?prob b;
            (* tail-recursive push: a node with millions of children must not
               recurse over the child list either *)
            stack :=
              List.rev_append
                (List.rev_map (fun c -> (None, `Tree c)) cs)
                ((None, `Close) :: !stack)
        | `Tree (Tree.Xor es) ->
            Builder.open_xor ?prob b;
            stack :=
              List.rev_append
                (List.rev_map (fun (p, c) -> (Some p, `Tree c)) es)
                ((None, `Close) :: !stack))
  done;
  Builder.finish b

let to_tree ~leaf a =
  (* Bottom-up construction with one frame per ancestor: a frame accumulates
     its children (reversed) until its cursor is exhausted. *)
  let module F = struct
    type 'x frame = {
      node : int;
      mutable next : int; (* child cursor, 0 .. count-1 *)
      mutable acc : (float * 'x Tree.t) list; (* reversed (eprob, child) *)
    }
  end in
  let open F in
  let build_leaf n = Tree.leaf (leaf ~key:a.leaf_key.(a.leaf_ix.(n)) ~value:a.leaf_value.(a.leaf_ix.(n))) in
  if is_leaf a a.root then build_leaf a.root
  else begin
    let result = ref None in
    let stack = ref [ { node = a.root; next = 0; acc = [] } ] in
    let finish_node f =
      let children = List.rev f.acc in
      if kind a f.node = kind_and then Tree.and_ (List.map snd children)
      else Tree.xor children
    in
    while !result = None do
      match !stack with
      | [] -> assert false
      | f :: rest ->
          if f.next >= a.child_count.(f.node) then begin
            let t = finish_node f in
            stack := rest;
            match rest with
            | [] -> result := Some t
            | parent :: _ -> parent.acc <- (a.eprob.(f.node), t) :: parent.acc
          end
          else begin
            let c = a.children.(a.child_start.(f.node) + f.next) in
            f.next <- f.next + 1;
            if is_leaf a c then f.acc <- (a.eprob.(c), build_leaf c) :: f.acc
            else stack := { node = c; next = 0; acc = [] } :: !stack
          end
    done;
    Option.get !result
  end

(* ---------- iterative traversals ---------- *)

let depth a =
  let d = ref 0 in
  let stack = ref [ (a.root, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (n, dn) :: rest ->
        stack := rest;
        if is_leaf a n then (if dn > !d then d := dn)
        else begin
          let cnt = a.child_count.(n) in
          (* a childless internal node sits at the end of its root path *)
          if cnt = 0 then (if dn > !d then d := dn);
          for i = cnt - 1 downto 0 do
            stack := (a.children.(a.child_start.(n) + i), dn + 1) :: !stack
          done
        end
  done;
  !d

let marginals a =
  let m = Array.make a.num_leaves 0. in
  let stack = ref [ (a.root, 1.) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (n, p) :: rest ->
        stack := rest;
        if is_leaf a n then m.(a.leaf_ix.(n)) <- p
        else begin
          let xor = kind a n = kind_xor in
          for i = a.child_count.(n) - 1 downto 0 do
            let c = a.children.(a.child_start.(n) + i) in
            let pc = if xor then p *. a.eprob.(c) else p in
            stack := (c, pc) :: !stack
          done
        end
  done;
  m

(* Per leaf, the xor edges on its root path as (xor node id, child index,
   edge probability), outermost first — the same contract as the old
   [Db.compute_paths] (node ids count every node in pre-order). *)
let leaf_paths a =
  let paths = Array.make (max 1 a.num_leaves) [||] in
  (* path entries shared via an immutable cons list; converted per leaf *)
  let stack = ref [ (a.root, []) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (n, path) :: rest ->
        stack := rest;
        if is_leaf a n then begin
          let arr = Array.of_list (List.rev path) in
          paths.(a.leaf_ix.(n)) <- arr
        end
        else begin
          let xor = kind a n = kind_xor in
          for i = a.child_count.(n) - 1 downto 0 do
            let c = a.children.(a.child_start.(n) + i) in
            let path' = if xor then (n, i, a.eprob.(c)) :: path else path in
            stack := (c, path') :: !stack
          done
        end
  done;
  paths

(* Key constraint of Definition 1: merging per-node key tables up an
   explicit frame stack; an [And] node rejects duplicate keys across its
   children. *)
let check_keys a =
  let exception Dup in
  let union_into ~disjoint dst src =
    Hashtbl.iter
      (fun k () ->
        if disjoint && Hashtbl.mem dst k then raise Dup;
        Hashtbl.replace dst k ())
      src
  in
  let table_of_leaf n =
    let h = Hashtbl.create 4 in
    Hashtbl.replace h a.leaf_key.(a.leaf_ix.(n)) ();
    h
  in
  match
    if is_leaf a a.root then ()
    else begin
      (* frame: node id, child cursor, accumulated key table *)
      let stack = ref [ (a.root, ref 0, Hashtbl.create 16) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (n, next, acc) :: rest ->
            if !next >= a.child_count.(n) then begin
              stack := rest;
              match rest with
              | [] -> ()
              | (pn, _, pacc) :: _ ->
                  union_into ~disjoint:(kind a pn = kind_and) pacc acc
            end
            else begin
              let c = a.children.(a.child_start.(n) + !next) in
              incr next;
              if is_leaf a c then
                union_into ~disjoint:(kind a n = kind_and) acc (table_of_leaf c)
              else stack := (c, ref 0, Hashtbl.create 16) :: !stack
            end
      done
    end
  with
  | () -> Ok ()
  | exception Dup ->
      Error "key constraint violated: two leaves with the same key have an And LCA"

(* ---------- shape predicates (see Db.is_independent / is_bid) ---------- *)

let bid_shape a ~singleton =
  kind a a.root = kind_and
  && begin
       let ok = ref true in
       let s = a.child_start.(a.root) and c = a.child_count.(a.root) in
       for i = 0 to c - 1 do
         let b = a.children.(s + i) in
         if kind a b <> kind_xor then ok := false
         else begin
           if singleton && a.child_count.(b) <> 1 then ok := false;
           let bs = a.child_start.(b) in
           for j = 0 to a.child_count.(b) - 1 do
             if not (is_leaf a a.children.(bs + j)) then ok := false
           done
         end
       done;
       !ok
     end

let xor_blocks a =
  if not (bid_shape a ~singleton:false) then None
  else begin
    let blocks = Array.make a.num_leaves 0 in
    let s = a.child_start.(a.root) in
    for i = 0 to a.child_count.(a.root) - 1 do
      let b = a.children.(s + i) in
      let bs = a.child_start.(b) in
      for j = 0 to a.child_count.(b) - 1 do
        blocks.(a.leaf_ix.(a.children.(bs + j))) <- i
      done
    done;
    Some blocks
  end

(* ---------- content digest ---------- *)

(* Hash of the exact structure and float bits: the CSR arrays pin the shape,
   [eprob]/[leaf_value] the probabilities and scores bit-for-bit, [leaf_key]
   the keys.  Structurally equal databases build identical arenas (both
   construction orders are deterministic depth-first), so they share the
   digest; this replaces marshalling the pointer tree. *)
let digest a =
  let ctx = Buffer.create 1024 in
  Buffer.add_bytes ctx a.kinds;
  Buffer.add_string ctx (Marshal.to_string a.children [ Marshal.No_sharing ]);
  Buffer.add_string ctx (Marshal.to_string a.eprob [ Marshal.No_sharing ]);
  Buffer.add_string ctx (Marshal.to_string a.leaf_key [ Marshal.No_sharing ]);
  Buffer.add_string ctx (Marshal.to_string a.leaf_value [ Marshal.No_sharing ]);
  Digest.to_hex (Digest.string (Buffer.contents ctx))
