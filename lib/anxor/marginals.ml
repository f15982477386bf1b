open Consensus_poly
module Pool = Consensus_engine.Pool
module Obs = Consensus_obs.Obs
module Cache = Consensus_cache.Cache

let rank_dist_seconds =
  Obs.Histogram.make
    ~help:"Wall time of one per-alternative rank-distribution computation"
    "anxor_rank_dist_seconds"

let size_distribution db = Genfunc.size_distribution (Db.arena db)

(* Generating function linear in y with y on leaf [l] and x on every leaf of
   strictly larger value: the coefficient of [x^{j-1} y] is
   Pr(leaf l present ∧ r = j) (paper Example 3; sibling alternatives of the
   same key may receive x safely because they are mutually exclusive with l,
   so no term contains both their x and l's y). *)
let rank_bipoly db l ~trunc =
  let a = Db.arena db in
  let s = a.Arena.leaf_value.(l) in
  Genfunc.bipoly ?trunc
    (fun i ->
      if i = l then Bipoly.y
      else if a.Arena.leaf_value.(i) > s then Bipoly.x
      else Bipoly.one)
    a

(* ---------- allocation-free kernels over the arena ----------

   Generating-function runs with bounded truncation: every polynomial part
   lives in the first [w] cells of a preallocated float row, [parts] rows
   per tree depth, so the inner loops never allocate.  Buffer updates
   mirror the immutable ops (see Poly1.Buf) operation for operation: the
   rank kernel is bit-identical to the generic [rank_bipoly] run. *)
type ws = {
  w : int; (* working width: x-degrees 0..w-1 *)
  parts : int; (* rows per frame *)
  mutable fnode : int array; (* per open frame: node id *)
  mutable fnext : int array; (* per open frame: next child position *)
  mutable rows : float array array; (* frame f's part r at f * parts + r *)
  tmp1 : float array;
  tmp2 : float array;
}

let make_ws ~w ~parts =
  {
    w;
    parts;
    fnode = Array.make 16 0;
    fnext = Array.make 16 0;
    rows = Array.make (16 * parts) [||];
    tmp1 = Array.make w 0.;
    tmp2 = Array.make w 0.;
  }

let ws_ensure ws d =
  if d >= Array.length ws.fnode then begin
    let cap = 2 * Array.length ws.fnode in
    let grow a fill len = Array.append a (Array.make (len - Array.length a) fill) in
    ws.fnode <- grow ws.fnode 0 cap;
    ws.fnext <- grow ws.fnext 0 cap;
    ws.rows <- grow ws.rows [||] (cap * ws.parts)
  end;
  let base = d * ws.parts in
  if Array.length ws.rows.(base) = 0 then
    for r = 0 to ws.parts - 1 do
      ws.rows.(base + r) <- Array.make ws.w 0.
    done

(* Post-order walk of a non-leaf arena root with explicit frames, as
   [Genfunc.eval] walks it.  A frame's part 0 starts at the node's constant
   — 1 under And, the residual 1 - Σp under Xor — and its other parts at
   zero; [leaf f c] folds leaf child [c] into frame [f], [absorb pf f] folds
   the finished frame [f] into its parent frame [pf].  The root's parts are
   frame 0's rows on return.  An over-full xor node (Σp up to the 1 + 1e-9
   bound [Tree.xor] accepts) gets residual 0, as possible-world enumeration
   gives it, instead of the negative 1 - Σp. *)
let walk ws (a : Arena.t) ~leaf ~absorb =
  let d = ref 0 in
  let push n =
    ws_ensure ws !d;
    ws.fnode.(!d) <- n;
    ws.fnext.(!d) <- 0;
    let c0 =
      if Arena.kind a n = Arena.kind_and then 1.
      else begin
        let st = a.child_start.(n) and c = a.child_count.(n) in
        let total = ref 0. in
        for i = st to st + c - 1 do
          total := !total +. a.eprob.(a.children.(i))
        done;
        Float.max 0. (1. -. !total)
      end
    in
    let base = !d * ws.parts in
    for r = 0 to ws.parts - 1 do
      Poly1.Buf.clear ws.rows.(base + r) ~w:ws.w
    done;
    ws.rows.(base).(0) <- c0;
    incr d
  in
  push a.root;
  while !d > 0 do
    let f = !d - 1 in
    let n = ws.fnode.(f) in
    if ws.fnext.(f) < a.child_count.(n) then begin
      let c = a.children.(a.child_start.(n) + ws.fnext.(f)) in
      ws.fnext.(f) <- ws.fnext.(f) + 1;
      if Arena.is_leaf a c then leaf f c else push c
    end
    else begin
      decr d;
      if !d > 0 then absorb (!d - 1) f
    end
  done

let make_rank_ws ~k = make_ws ~w:k ~parts:2

(* [rank_dist_alt_into ws a l dst]: Pr(r(leaf l) = j+1) into dst.(j),
   j < k = ws.w.  The two parts of a frame are [rank_bipoly]'s a + y·b.
   [above] moves the threshold that puts x on a leaf: every other leaf of
   value > [above] counts (default: l's own value, which counts the
   higher-ranked tuples).  At [neg_infinity] every other leaf counts, so
   dst.(j) = Pr(l present ∧ |pw| = j+1); l's sibling alternatives are
   mutually exclusive with it, so their x never meets its y. *)
let rank_dist_alt_into ?above ws (a : Arena.t) l dst =
  let module B = Poly1.Buf in
  let w = ws.w in
  let s = match above with Some v -> v | None -> a.leaf_value.(l) in
  if Arena.is_leaf a a.root then begin
    (* single-leaf database: f = y, so b = 1 *)
    B.clear dst ~w;
    dst.(0) <- 1.
  end
  else begin
    let leaf f c =
      let li = a.leaf_ix.(c) in
      let ra = ws.rows.(2 * f) and rb = ws.rows.((2 * f) + 1) in
      if Arena.kind a ws.fnode.(f) = Arena.kind_and then begin
        (* acc <- acc * leaf, exploiting the leaf's sparsity *)
        if li = l then begin
          (* * y: (a + y b) y = y a  (y² dropped: y marks one leaf) *)
          B.blit ~src:ra ~dst:rb ~w;
          B.clear ra ~w
        end
        else if a.leaf_value.(li) > s then begin
          (* * x: shift both parts up one degree *)
          B.shift_up_inplace ra ~w;
          B.shift_up_inplace rb ~w
        end
      end
      else begin
        (* acc <- acc + p * leaf *)
        let p = a.eprob.(c) in
        if li = l then rb.(0) <- rb.(0) +. (p *. 1.)
        else if a.leaf_value.(li) > s then begin
          if w > 1 then ra.(1) <- ra.(1) +. (p *. 1.)
        end
        else ra.(0) <- ra.(0) +. (p *. 1.)
      end
    in
    let absorb pf f =
      let pa = ws.rows.(2 * pf) and pb = ws.rows.((2 * pf) + 1) in
      let ca = ws.rows.(2 * f) and cb = ws.rows.((2 * f) + 1) in
      if Arena.kind a ws.fnode.(pf) = Arena.kind_and then begin
        (* (pa + y pb)(ca + y cb) = pa·ca + y(pa·cb + pb·ca) *)
        B.mul_trunc_into ~p:pa ~q:cb ~dst:ws.tmp1 ~w;
        B.mul_trunc_into ~p:pb ~q:ca ~dst:ws.tmp2 ~w;
        B.blit ~src:ws.tmp1 ~dst:pb ~w;
        B.add_into ~src:ws.tmp2 ~dst:pb ~w;
        B.mul_trunc_into ~p:pa ~q:ca ~dst:ws.tmp1 ~w;
        B.blit ~src:ws.tmp1 ~dst:pa ~w
      end
      else begin
        let p = a.eprob.(ws.fnode.(f)) in
        B.axpy p ~src:ca ~dst:pa ~w;
        B.axpy p ~src:cb ~dst:pb ~w
      end
    in
    walk ws a ~leaf ~absorb;
    B.blit ~src:ws.rows.(1) ~dst ~w
  end

let rank_dist_alt db l ~k =
  if k <= 0 then invalid_arg "Marginals.rank_dist_alt: k must be positive";
  Obs.Histogram.time rank_dist_seconds @@ fun () ->
  let ws = make_rank_ws ~k in
  let dst = Array.make k 0. in
  rank_dist_alt_into ws (Db.arena db) l dst;
  dst

let full_rank_dist_alt db l =
  let f = rank_bipoly db l ~trunc:None in
  Array.init (Db.num_alts db) (fun m -> Poly1.coeff f.Bipoly.b m)

let rank_dist ?above db key ~k =
  let acc = Array.make k 0. in
  (* one workspace and scratch row shared by all of the key's alternatives *)
  let ws = make_rank_ws ~k in
  let dst = Array.make k 0. in
  let arena = Db.arena db in
  List.iter
    (fun l ->
      Obs.Histogram.time rank_dist_seconds (fun () ->
          rank_dist_alt_into ?above ws arena l dst);
      Array.iteri (fun j p -> acc.(j) <- acc.(j) +. p) dst)
    (Db.alts_of_key db key);
  acc

(* Per-key rank distributions are independent O(n·k) computations over the
   shared (immutable) tree: an embarrassingly parallel map over the keys. *)
let rank_table_slow ?pool db ~k =
  Db.keys db
  |> Pool.parallel_map ?pool ~stage:"rank_table" (fun key ->
         (key, rank_dist db key ~k))
  |> Array.to_list

(* O(n·k) rank table for BID-shaped trees (independent, BID, x-tuples).
   Sweep the alternatives in decreasing score order ([Db.score_order]).
   Let m_B be the mass of block B's alternatives with score strictly above
   the sweep position; B's factor is (1 - m_B) + m_B·x, with the residual
   clamped at 0 as [walk] clamps it.  For an alternative a in block B,
   Pr(r(a) = j) = p_a · coeff(F / factor_B, j-1), F the truncated product of
   every block's factor: dividing a's own block factor out removes its
   mutually exclusive block-mates — same-key alternatives and x-tuple mates
   alike — from the count of higher-ranked present tuples.

   A saturated block — residual 1 - m_B <= 0: a complete certain block, or
   an over-full one at the 1 + 1e-9 bound [Tree.xor] accepts — has factor
   m_B·x, a shift by one degree.  The sweep counts such blocks in [s] and
   never divides by them: F = x^s·f, where [f] holds the product of the
   unsaturated factors times the saturated masses.  So a's row reads
   f / factor_B at offset s, or f / m_B at offset s - 1 when B itself is
   saturated, and once s > k every later row is 0: the sweep stops there.

   The divide is where precision goes.  Dividing by (c0 + m·x), c0 = 1 - m,
   from the low degree up multiplies an error by m/c0 per degree; from the
   top degree down, by c0/m.  Either way the error that [f] already carries
   is not divisible by the factor, so it comes back amplified by up to
   amp = 1/|m - c0| (the l1 norm of the stable-direction series) and stays
   in [f] for every later divide: at k = n with the low-first divide alone,
   100-key BID tables came out wrong by 1e47.  So while [f] is untruncated
   (its degree — the number of unsaturated blocks with positive mass — is
   below k, always the case at k = n) the sweep divides in the stable
   direction and keeps an l1 bound on [f]'s error, in units of machine
   epsilon; when a divide would push the result's bound past [err_budget],
   [f / factor] is rebuilt from scratch instead, which resets the bound.  A
   truncated [f] has no top degree to divide from: it divides low-first
   while c0 >= 1/4 and rebuilds otherwise.  That rebuild, for a partly
   swept block with c0 < 1/4 once [f] is truncated, is the one O(blocks·k)
   step left; certain blocks bound how often it runs by stopping the sweep.

   All polynomials live in preallocated width-k buffers: per alternative
   the sweep does one divide (or blit), one k-term accumulate and one
   in-place linear multiply.  The divides, multiplies and the rebuild are
   inlined (the same operations, in the same order, as
   [Poly1.Buf.divide_linear_into] / [mul_linear_inplace]): a call boundary
   would box the float coefficients on every alternative, and this loop
   must not allocate. *)
let rank_table_dense db ~k =
  if k <= 0 then invalid_arg "Marginals.rank_table_dense: k must be positive";
  let module B = Poly1.Buf in
  let blocks =
    match Db.xor_blocks db with
    | Some b -> b
    | None ->
        invalid_arg "Marginals.rank_table_dense: requires a BID-shaped database"
  in
  let arena = Db.arena db in
  let n = Db.num_alts db in
  let marg = Db.marginal_array db in
  let keys = Db.keys db in
  let rows = Db.key_rows db in
  let order = Db.score_order db in
  (* exclusion mass is tracked per xor block: block-mates are mutually
     exclusive with the current alternative whatever their keys (x-tuples),
     and same-key alternatives always share a block (key constraint) *)
  let nblocks = arena.Arena.child_count.(arena.Arena.root) in
  let mass = Array.make (max 1 nblocks) 0. in
  let w = k in
  let f = Array.make w 0. in
  f.(0) <- 1.;
  let f_excl = Array.make w 0. in
  (* saturated blocks so far *)
  let s = ref 0 in
  (* degree of [f]: unsaturated blocks with positive mass *)
  let deg = ref 0 in
  (* l1 error bound on [f] in units of epsilon, kept while [!deg < w] *)
  let err = ref 0. in
  let err_budget = 1e6 in
  let dense = Array.make (Array.length keys * k) 0. in
  let i = ref 0 in
  while !i < n && !s <= k do
    let l = Array.unsafe_get order !i in
    incr i;
    let block = Array.unsafe_get blocks l in
    let p = Array.unsafe_get marg l in
    let m = Array.unsafe_get mass block in
    let c0 = 1. -. m in
    let own_saturated = m > 0. && c0 <= 0. in
    if m <= 0. then begin
      B.blit ~src:f ~dst:f_excl ~w;
      err := !err +. 1.
    end
    else if own_saturated then begin
      for j = 0 to w - 1 do
        Array.unsafe_set f_excl j (Array.unsafe_get f j /. m)
      done;
      err := !err +. 2.
    end
    else begin
      let untruncated = !deg < w in
      let amp = 1. /. Float.abs (m -. c0) in
      if
        (untruncated && amp *. (!err +. 2.) > err_budget)
        || ((not untruncated) && c0 < 0.25)
      then begin
        (* the product of every other block's factor, from scratch; its
           degree grows by one per unsaturated factor, so only the prefix
           that can be nonzero is multiplied *)
        B.set_const f_excl ~w 1.;
        let d = ref 0 in
        for b = 0 to nblocks - 1 do
          let mb = Array.unsafe_get mass b in
          if b <> block && mb > 0. then begin
            let cb = 1. -. mb in
            if cb <= 0. then
              for j = 0 to !d do
                Array.unsafe_set f_excl j (mb *. Array.unsafe_get f_excl j)
              done
            else begin
              if !d < w - 1 then incr d;
              for j = !d downto 1 do
                Array.unsafe_set f_excl j
                  ((mb *. Array.unsafe_get f_excl (j - 1))
                  +. (cb *. Array.unsafe_get f_excl j))
              done;
              Array.unsafe_set f_excl 0 (cb *. Array.unsafe_get f_excl 0)
            end
          end
        done;
        err := (2. *. float_of_int !deg) +. 1.
      end
      else begin
        if m < c0 || not untruncated then begin
          Array.unsafe_set f_excl 0 (Array.unsafe_get f 0 /. c0);
          for j = 1 to w - 1 do
            Array.unsafe_set f_excl j
              ((Array.unsafe_get f j -. (m *. Array.unsafe_get f_excl (j - 1)))
              /. c0)
          done
        end
        else begin
          (* f = f_excl·(c0 + m x) with deg f_excl = deg - 1: solve from
             the top coefficient down *)
          let d = !deg in
          for j = d to w - 1 do
            Array.unsafe_set f_excl j 0.
          done;
          for j = d downto 1 do
            Array.unsafe_set f_excl (j - 1)
              ((Array.unsafe_get f j -. (c0 *. Array.unsafe_get f_excl j))
              /. m)
          done
        end;
        (* the carried error comes back as err·(1 + p·|x - 1|·amp), plus
           the divide's and the multiply's own rounding *)
        err := (!err *. (1. +. (2. *. p *. amp))) +. (2. *. amp) +. 1.
      end
    end;
    let shift = if own_saturated then !s - 1 else !s in
    let base = Array.unsafe_get rows l * k in
    for j = shift to k - 1 do
      Array.unsafe_set dense (base + j)
        (Array.unsafe_get dense (base + j)
        +. (p *. Array.unsafe_get f_excl (j - shift)))
    done;
    let m' = m +. p in
    Array.unsafe_set mass block m';
    let c0 = 1. -. m' in
    if c0 <= 0. then begin
      (* f <- f_excl·m', and the block's shift joins [s] *)
      for j = 0 to w - 1 do
        Array.unsafe_set f j (m' *. Array.unsafe_get f_excl j)
      done;
      if not own_saturated then begin
        incr s;
        if m > 0. then decr deg
      end
    end
    else begin
      if m <= 0. && m' > 0. then incr deg;
      (* f <- f_excl·(c0 + m' x): the blit and the backward sweep fuse into
         one pass reading [f_excl], writing [f] — same values as
         [blit; mul_linear_inplace] *)
      for j = w - 1 downto 1 do
        Array.unsafe_set f j
          ((m' *. Array.unsafe_get f_excl (j - 1))
          +. (c0 *. Array.unsafe_get f_excl j))
      done;
      Array.unsafe_set f 0 (c0 *. Array.unsafe_get f_excl 0)
    end
  done;
  (keys, dense)

let rank_table ?pool db ~k =
  let fast = Db.is_bid db || Db.is_independent db in
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("keys", Obs.Int (Array.length (Db.keys db)));
        ("k", Obs.Int k);
        ("path", Obs.Str (if fast then "fast-sweep" else "slow-gf"));
      ])
    "anxor.rank_table"
    (fun () ->
      let compute () =
        if fast then begin
          let keys, dense = rank_table_dense db ~k in
          Array.to_list keys
          |> List.mapi (fun r key -> (key, Array.sub dense (r * k) k))
        end
        else rank_table_slow ?pool db ~k
      in
      Cache.memo Cache.Rank_table ~family:"rank_table"
        ~digest:(fun () -> Db.digest db)
        ~params:[ string_of_int k ] compute)

(* Untruncated table: on BID/independent shapes the sweep at k = n is O(n²)
   in total; other trees pay one O(n²) generating-function run per
   alternative, parallel over keys.  [rank_table_slow]'s fixed-width kernel
   is not used here: at full width it is several times slower than the
   generic bipoly, which only grows each polynomial to its actual degree. *)
let full_rank_table ?pool db =
  let n = Db.num_alts db in
  let compute () =
    if n > 0 && (Db.is_bid db || Db.is_independent db) then begin
      let keys, dense = rank_table_dense db ~k:n in
      Array.init (Array.length keys) (fun r -> Array.sub dense (r * n) n)
    end
    else
      Pool.parallel_map ?pool ~stage:"full_rank_dist"
        (fun key ->
          let acc = Array.make n 0. in
          List.iter
            (fun l ->
              Array.iteri
                (fun m p -> acc.(m) <- acc.(m) +. p)
                (full_rank_dist_alt db l))
            (Db.alts_of_key db key);
          acc)
        (Db.keys db)
  in
  Cache.memo Cache.Matrix ~family:"full_rank_dist"
    ~digest:(fun () -> Db.digest db)
    ~params:[] compute

let rank_leq db key ~k = Array.fold_left ( +. ) 0. (rank_dist db key ~k)

(* [tmp1] <- (or +=, when [started]) p·q, skipped when either operand is
   zero as [Poly1.mul_trunc] skips it; returns whether [tmp1] holds a
   term. *)
let add_product ws ~p ~q ~zero started =
  let module B = Poly1.Buf in
  let w = ws.w in
  if zero then started
  else if not started then begin
    B.mul_trunc_into ~p ~q ~dst:ws.tmp1 ~w;
    true
  end
  else begin
    B.mul_trunc_into ~p ~q ~dst:ws.tmp2 ~w;
    B.add_into ~src:ws.tmp2 ~dst:ws.tmp1 ~w;
    true
  end

let store_sum ws ~dst started =
  if started then Poly1.Buf.blit ~src:ws.tmp1 ~dst ~w:ws.w
  else Poly1.Buf.clear dst ~w:ws.w

(* Pr(alternative la present ∧ alternative lb present ∧ both keys in the
   top-k), for k >= 2 on a workspace of width k - 1 with four parts: the
   generating function a + b·y + c·z + d·yz with y on la, z on lb and x on
   every other leaf of value > min(value la, value lb).  Both are in the
   top-k iff at most k - 2 x-marked leaves are present (the higher of the
   two occupies one of the k slots itself), so the answer is the sum of
   d's coefficients.  Products drop y² and z² (y and z each mark one leaf)
   and follow
     a = a1 a2,  b = a1 b2 + b1 a2,  c = a1 c2 + c1 a2,
     d = ((a1 d2 + d1 a2) + b1 c2) + c1 b2
   term for term, in that order.  Over-full xor nodes get residual 0 (see
   [walk]): with 1 - Σp = -1e-9 the joint would miss the enumerated one by
   up to 1e-9. *)
let topk_pair_alt_into ws (a : Arena.t) la lb =
  let module B = Poly1.Buf in
  let w = ws.w in
  if Arena.is_leaf a a.root then 0.
  else begin
    let lo = Float.min a.leaf_value.(la) a.leaf_value.(lb) in
    let leaf f c =
      let li = a.leaf_ix.(c) in
      let ra = ws.rows.(4 * f)
      and rb = ws.rows.((4 * f) + 1)
      and rc = ws.rows.((4 * f) + 2)
      and rd = ws.rows.((4 * f) + 3) in
      if Arena.kind a ws.fnode.(f) = Arena.kind_and then begin
        if li = la then begin
          (* * y = a y + c yz *)
          B.blit ~src:rc ~dst:rd ~w;
          B.blit ~src:ra ~dst:rb ~w;
          B.clear ra ~w;
          B.clear rc ~w
        end
        else if li = lb then begin
          (* * z = a z + b yz *)
          B.blit ~src:rb ~dst:rd ~w;
          B.blit ~src:ra ~dst:rc ~w;
          B.clear ra ~w;
          B.clear rb ~w
        end
        else if a.leaf_value.(li) > lo then begin
          B.shift_up_inplace ra ~w;
          B.shift_up_inplace rb ~w;
          B.shift_up_inplace rc ~w;
          B.shift_up_inplace rd ~w
        end
      end
      else begin
        let p = a.eprob.(c) in
        if li = la then rb.(0) <- rb.(0) +. (p *. 1.)
        else if li = lb then rc.(0) <- rc.(0) +. (p *. 1.)
        else if a.leaf_value.(li) > lo then begin
          if w > 1 then ra.(1) <- ra.(1) +. (p *. 1.)
        end
        else ra.(0) <- ra.(0) +. (p *. 1.)
      end
    in
    let absorb pf f =
      let pa = ws.rows.(4 * pf)
      and pb = ws.rows.((4 * pf) + 1)
      and pc = ws.rows.((4 * pf) + 2)
      and pd = ws.rows.((4 * pf) + 3) in
      let ca = ws.rows.(4 * f)
      and cb = ws.rows.((4 * f) + 1)
      and cc = ws.rows.((4 * f) + 2)
      and cd = ws.rows.((4 * f) + 3) in
      if Arena.kind a ws.fnode.(pf) = Arena.kind_and then begin
        let zpa = B.is_zero pa ~w
        and zpb = B.is_zero pb ~w
        and zpc = B.is_zero pc ~w
        and zpd = B.is_zero pd ~w in
        let zca = B.is_zero ca ~w
        and zcb = B.is_zero cb ~w
        and zcc = B.is_zero cc ~w
        and zcd = B.is_zero cd ~w in
        (* d first: it reads every old parent part *)
        add_product ws ~p:pa ~q:cd ~zero:(zpa || zcd) false
        |> add_product ws ~p:pd ~q:ca ~zero:(zpd || zca)
        |> add_product ws ~p:pb ~q:cc ~zero:(zpb || zcc)
        |> add_product ws ~p:pc ~q:cb ~zero:(zpc || zcb)
        |> store_sum ws ~dst:pd;
        add_product ws ~p:pa ~q:cb ~zero:(zpa || zcb) false
        |> add_product ws ~p:pb ~q:ca ~zero:(zpb || zca)
        |> store_sum ws ~dst:pb;
        add_product ws ~p:pa ~q:cc ~zero:(zpa || zcc) false
        |> add_product ws ~p:pc ~q:ca ~zero:(zpc || zca)
        |> store_sum ws ~dst:pc;
        add_product ws ~p:pa ~q:ca ~zero:(zpa || zca) false
        |> store_sum ws ~dst:pa
      end
      else begin
        let p = a.eprob.(ws.fnode.(f)) in
        B.axpy p ~src:ca ~dst:pa ~w;
        B.axpy p ~src:cb ~dst:pb ~w;
        B.axpy p ~src:cc ~dst:pc ~w;
        B.axpy p ~src:cd ~dst:pd ~w
      end
    in
    walk ws a ~leaf ~absorb;
    let rd = ws.rows.(3) in
    let acc = ref 0. in
    for m = 0 to w - 1 do
      acc := !acc +. rd.(m)
    done;
    !acc
  end

(* Sum of the alternative-pair joints of keys k1, k2; [ordered] keeps only
   the pairs where k1's alternative scores higher.  Every joint is 0 below
   k = 2. *)
let topk_pair_sum db k1 k2 ~k ~ordered =
  if k < 2 then 0.
  else begin
    let arena = Db.arena db in
    let ws = make_ws ~w:(k - 1) ~parts:4 in
    List.fold_left
      (fun acc la ->
        let va = (Db.alt db la).value in
        List.fold_left
          (fun acc lb ->
            if (not ordered) || va > (Db.alt db lb).value then
              acc +. topk_pair_alt_into ws arena la lb
            else acc)
          acc (Db.alts_of_key db k2))
      0. (Db.alts_of_key db k1)
  end

let topk_pair_prob db k1 k2 ~k =
  if k1 = k2 then invalid_arg "Marginals.topk_pair_prob: keys must differ";
  topk_pair_sum db k1 k2 ~k ~ordered:false

let topk_pair_prob_ordered db k1 k2 ~k =
  if k1 = k2 then invalid_arg "Marginals.topk_pair_prob_ordered: keys must differ";
  (* k1 above k2: only alternative pairs where k1's value is larger. *)
  topk_pair_sum db k1 k2 ~k ~ordered:true

let beats db k1 k2 =
  if k1 = k2 then invalid_arg "Marginals.beats: keys must differ";
  (* r(k1) < r(k2) iff k1 is present with alternative a and either k2 is
     absent, or k2 is present with a lower-valued alternative. *)
  List.fold_left
    (fun acc la ->
      let a = Db.alt db la in
      let with_absent =
        Db.marginal db la
        -. List.fold_left
             (fun s lb -> s +. Db.pair_marginal db la lb)
             0. (Db.alts_of_key db k2)
      in
      let with_lower =
        List.fold_left
          (fun s lb ->
            let b = Db.alt db lb in
            if b.value < a.value then s +. Db.pair_marginal db la lb else s)
          0. (Db.alts_of_key db k2)
      in
      acc +. with_absent +. with_lower)
    0. (Db.alts_of_key db k1)

let beats_present db k1 k2 =
  if k1 = k2 then invalid_arg "Marginals.beats_present: keys must differ";
  List.fold_left
    (fun acc la ->
      let a = Db.alt db la in
      List.fold_left
        (fun s lb ->
          let b = Db.alt db lb in
          if b.value < a.value then s +. Db.pair_marginal db la lb else s)
        acc (Db.alts_of_key db k2))
    0. (Db.alts_of_key db k1)

let expected_rank db key =
  (* E[#higher-ranked present | key present]-part plus
     E[|pw| · 1(key absent)], following Cormode et al.'s convention. *)
  let present_part =
    List.fold_left
      (fun acc l ->
        let f = rank_bipoly db l ~trunc:None in
        acc +. Poly1.expectation f.Bipoly.b)
      0. (Db.alts_of_key db key)
  in
  let arena = Db.arena db in
  let f_absent =
    Genfunc.bipoly ?trunc:None
      (fun i ->
        if arena.Arena.leaf_key.(i) = key then Bipoly.y
        else Bipoly.make ~a:Poly1.x ~b:Poly1.zero)
      arena
  in
  (* a-part of f_absent: generating function of |pw \ alts(key)| restricted
     to worlds where the key is absent. *)
  present_part +. Poly1.expectation f_absent.Bipoly.a

let expected_value db key =
  List.fold_left
    (fun acc l -> acc +. (Db.marginal db l *. (Db.alt db l).value))
    0. (Db.alts_of_key db key)
