(* Differential fuzzing of the lineage-inference stack.

   Each case is a (registry, formula) pair from the plan-shaped generator
   [Consensus_workload.Lineage_gen].  Layers, per case:

   1. route agreement: [Inference.probability ~readonce:true] vs
      [~readonce:false] — the read-once fast path against Shannon
      expansion, the core differential;
   2. pure Shannon: [~decompose:false ~readonce:false] (no component
      factorization at all) on instances small enough to afford it;
   3. brute force: the possible-worlds enumeration on <= 18-variable
      instances — ground truth;
   4. Monte Carlo: [probability_mc] within a 5-sigma band (the sampler
      seed derives from the serialized case, so replays are exact);
   5. metamorphic scrambles: equivalence-preserving rewrites (child
      shuffles, idempotent duplication, double negation, De Morgan) must
      preserve both the read-once verdict and the probability;
   6. on freshly generated cases only: the generator's theory expectation
      (hierarchical shapes detected, induced-P4 shapes rejected).

   Campaigns run on the shared loop ([Campaign]): failures shrink over
   [candidates] and promote into the shared corpus directory as
   [lcase-*.txt] files, replayed by the same [@fuzz] alias as the core
   corpus. *)

module Prng = Consensus_util.Prng
module Fcmp = Consensus_util.Fcmp
module Lineage_gen = Consensus_workload.Lineage_gen
open Consensus_pdb

type case = { shape : string; reg : Lineage.Registry.r; lineage : Lineage.t }

let of_gen (c : Lineage_gen.case) =
  { shape = c.Lineage_gen.shape; reg = c.Lineage_gen.reg; lineage = c.Lineage_gen.lineage }

(* ---------- serialization ----------

   Line-oriented, like the core corpus:

   {v
   lineage shape=product
   var 0.55
   block 0.1 0.2
   formula (or (and x0 x1) (not x3))
   v}

   Registry lines appear in variable order ([fresh_block] allocates
   consecutive ids, so blocks serialize as one line); the formula grammar
   is [t | f | xN | (not F) | (and F ...) | (or F ...)]. *)

let formula_to_string f =
  let buf = Buffer.create 128 in
  let rec go = function
    | Lineage.True -> Buffer.add_string buf "t"
    | Lineage.False -> Buffer.add_string buf "f"
    | Lineage.Var v -> Buffer.add_string buf (Printf.sprintf "x%d" v)
    | Lineage.Not g ->
        Buffer.add_string buf "(not ";
        go g;
        Buffer.add_char buf ')'
    | Lineage.And fs -> conn "and" fs
    | Lineage.Or fs -> conn "or" fs
  and conn name fs =
    Buffer.add_char buf '(';
    Buffer.add_string buf name;
    List.iter
      (fun g ->
        Buffer.add_char buf ' ';
        go g)
      fs;
    Buffer.add_char buf ')'
  in
  go f;
  Buffer.contents buf

let formula_of_string s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    match s.[!i] with
    | '(' | ')' ->
        toks := String.make 1 s.[!i] :: !toks;
        incr i
    | ' ' | '\t' -> incr i
    | _ ->
        let j = ref !i in
        while
          !j < n && (match s.[!j] with '(' | ')' | ' ' | '\t' -> false | _ -> true)
        do
          incr j
        done;
        toks := String.sub s !i (!j - !i) :: !toks;
        i := !j
  done;
  let toks = ref (List.rev !toks) in
  let next () =
    match !toks with
    | [] -> failwith "unexpected end of formula"
    | t :: rest ->
        toks := rest;
        t
  in
  let atom = function
    | "t" -> Lineage.True
    | "f" -> Lineage.False
    | t
      when String.length t > 1
           && t.[0] = 'x'
           && String.for_all (fun c -> c >= '0' && c <= '9')
                (String.sub t 1 (String.length t - 1)) ->
        Lineage.Var (int_of_string (String.sub t 1 (String.length t - 1)))
    | t -> failwith (Printf.sprintf "bad formula token %S" t)
  in
  let rec parse () =
    match next () with
    | "(" -> (
        let op = next () in
        let args = ref [] in
        let rec loop () =
          match !toks with
          | ")" :: rest ->
              toks := rest;
              List.rev !args
          | _ ->
              args := parse () :: !args;
              loop ()
        in
        let args = loop () in
        match op with
        | "not" -> (
            match args with
            | [ g ] -> Lineage.Not g
            | _ -> failwith "not takes one argument")
        | "and" -> Lineage.And args
        | "or" -> Lineage.Or args
        | op -> failwith (Printf.sprintf "bad connective %S" op))
    | ")" -> failwith "unexpected )"
    | t -> atom t
  in
  match parse () with
  | f -> if !toks = [] then Ok f else Error "trailing tokens after formula"
  | exception Failure e -> Error e

let to_string { shape; reg; lineage } =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "lineage shape=%s\n" shape);
  let n = Lineage.Registry.num_vars reg in
  let v = ref 0 in
  while !v < n do
    (match Lineage.Registry.block_of reg !v with
    | None ->
        Buffer.add_string buf
          (Printf.sprintf "var %s\n" (Campaign.float_repr (Lineage.Registry.prob reg !v)));
        incr v
    | Some b ->
        let members = Lineage.Registry.block_members reg b in
        Buffer.add_string buf "block";
        List.iter
          (fun w ->
            Buffer.add_string buf
              (Printf.sprintf " %s" (Campaign.float_repr (Lineage.Registry.prob reg w))))
          members;
        Buffer.add_char buf '\n';
        v := !v + List.length members);
    ()
  done;
  Buffer.add_string buf (Printf.sprintf "formula %s\n" (formula_to_string lineage));
  Buffer.contents buf

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> ';' && l.[0] <> '#')
  in
  let parse_floats rest =
    try Ok (List.map float_of_string (String.split_on_char ' ' (String.trim rest)))
    with Failure _ -> Error "bad probability"
  in
  match lines with
  | [] -> Error "empty case"
  | header :: rest -> (
      let shape =
        if header = "lineage" then Ok "unknown"
        else
          match String.index_opt header ' ' with
          | Some i when String.sub header 0 i = "lineage" ->
              let spec = String.trim (String.sub header (i + 1) (String.length header - i - 1)) in
              if String.length spec > 6 && String.sub spec 0 6 = "shape=" then
                Ok (String.sub spec 6 (String.length spec - 6))
              else Error (Printf.sprintf "bad lineage header %S" header)
          | _ -> Error "expected a 'lineage ...' first line"
      in
      match shape with
      | Error e -> Error e
      | Ok shape -> (
          let reg = Lineage.Registry.create () in
          let rec load = function
            | [] -> Error "missing 'formula' line"
            | line :: rest -> (
                match String.index_opt line ' ' with
                | None -> Error (Printf.sprintf "bad case line %S" line)
                | Some i -> (
                    let kind = String.sub line 0 i in
                    let payload =
                      String.sub line (i + 1) (String.length line - i - 1)
                    in
                    match kind with
                    | "var" -> (
                        match parse_floats payload with
                        | Ok [ p ] ->
                            ignore (Lineage.Registry.fresh reg p);
                            load rest
                        | Ok _ -> Error "var line takes one probability"
                        | Error e -> Error e)
                    | "block" -> (
                        match parse_floats payload with
                        | Ok ps when ps <> [] ->
                            ignore (Lineage.Registry.fresh_block reg ps);
                            load rest
                        | Ok _ -> Error "empty block line"
                        | Error e -> Error e)
                    | "formula" ->
                        if rest <> [] then Error "content after formula line"
                        else
                          Result.map
                            (fun lineage -> { shape; reg; lineage })
                            (formula_of_string payload)
                    | _ -> Error (Printf.sprintf "bad case line %S" line)))
          in
          match load rest with
          | exception Invalid_argument e -> Error e
          | r -> r))

let codec = { Campaign.prefix = "lcase-"; to_string; of_string }

(* ---------- brute-force oracle ---------- *)

let brute_var_limit = 18

(* Recursive enumeration over independent vars and whole blocks; the
   assignment array is reused across branches. *)
let brute reg f =
  let n = Lineage.Registry.num_vars reg in
  let blocks = Hashtbl.create 8 in
  let groups = ref [] in
  for v = n - 1 downto 0 do
    match Lineage.Registry.block_of reg v with
    | None -> groups := `Var v :: !groups
    | Some b ->
        if not (Hashtbl.mem blocks b) then begin
          Hashtbl.replace blocks b ();
          groups := `Block b :: !groups
        end
  done;
  let assign = Array.make (max n 1) false in
  let total = ref 0. in
  let rec go q = function
    | [] -> if Lineage.eval f (fun v -> assign.(v)) then total := !total +. q
    | `Var v :: rest ->
        let p = Lineage.Registry.prob reg v in
        assign.(v) <- true;
        go (q *. p) rest;
        assign.(v) <- false;
        go (q *. (1. -. p)) rest
    | `Block b :: rest ->
        let members = Lineage.Registry.block_members reg b in
        let mass =
          List.fold_left (fun acc w -> acc +. Lineage.Registry.prob reg w) 0. members
        in
        List.iter
          (fun w ->
            assign.(w) <- true;
            go (q *. Lineage.Registry.prob reg w) rest;
            assign.(w) <- false)
          members;
        if mass < 1. -. 1e-12 then go (q *. (1. -. mass)) rest
  in
  go 1. !groups;
  !total

(* ---------- metamorphic scrambles ---------- *)

let shuffle_list rng l =
  let a = Array.of_list l in
  Prng.shuffle rng a;
  Array.to_list a

let rec scramble rng f =
  let f =
    match f with
    | Lineage.And fs -> Lineage.And (shuffle_list rng (List.map (scramble rng) fs))
    | Lineage.Or fs -> Lineage.Or (shuffle_list rng (List.map (scramble rng) fs))
    | Lineage.Not g -> Lineage.Not (scramble rng g)
    | leaf -> leaf
  in
  match (f, Prng.int rng 5) with
  | f, 0 -> Lineage.Not (Lineage.Not f)
  | Lineage.Or (g :: rest), 1 -> Lineage.Or (g :: g :: rest)
  | Lineage.And (g :: rest), 1 -> Lineage.And (g :: g :: rest)
  | Lineage.And fs, 2 -> Lineage.Not (Lineage.Or (List.map (fun g -> Lineage.Not g) fs))
  | Lineage.Or fs, 2 -> Lineage.Not (Lineage.And (List.map (fun g -> Lineage.Not g) fs))
  | f, 3 -> Lineage.And [ f ]
  | f, _ -> f

(* ---------- checking ---------- *)

let mc_samples = 10_000

let check_case ?(readonce = true) ?(expect = Lineage_gen.Unknown) case =
  let reg = case.reg and f = case.lineage in
  Campaign.checking @@ fun ensure ->
  let nvars = List.length (Lineage.vars f) in
  let p_base = Inference.probability ~readonce:false reg f in
  ensure "probability-range"
    (fun () -> Printf.sprintf "Pr = %.17g outside [0,1]" p_base)
    (Fcmp.is_probability ~eps:1e-9 p_base);
  (* 1. read-once fast path vs Shannon expansion *)
  if readonce then begin
    let p_fast = Inference.probability ~readonce:true reg f in
    ensure "readonce-vs-shannon"
      (fun () ->
        Printf.sprintf "readonce %.17g vs shannon %.17g" p_fast p_base)
      (Fcmp.approx ~eps:1e-9 p_fast p_base);
    (* direct factored evaluation, when detection succeeds *)
    match Readonce.probability reg f with
    | None -> ()
    | Some p_ro ->
        ensure "readonce-eval"
          (fun () ->
            Printf.sprintf "factored eval %.17g vs shannon %.17g" p_ro p_base)
          (Fcmp.approx ~eps:1e-9 p_ro p_base)
  end;
  (* 2. pure Shannon (no component decomposition) on small instances *)
  if nvars <= brute_var_limit then begin
    let p_pure =
      Inference.probability ~decompose:false ~readonce:false reg f
    in
    ensure "pure-shannon"
      (fun () ->
        Printf.sprintf "undecomposed %.17g vs decomposed %.17g" p_pure p_base)
      (Fcmp.approx ~eps:1e-9 p_pure p_base)
  end;
  (* 3. brute-force possible worlds *)
  if nvars <= brute_var_limit then begin
    let p_brute = brute reg f in
    ensure "brute-force"
      (fun () ->
        Printf.sprintf "inference %.17g vs possible worlds %.17g" p_base
          p_brute)
      (Fcmp.approx ~eps:1e-6 p_base p_brute)
  end;
  (* 4. Monte Carlo within a 5-sigma band *)
  let seed = Hashtbl.hash (to_string case) land 0xFFFFFF in
  let mc =
    Inference.probability_mc (Prng.create ~seed ()) reg ~samples:mc_samples f
  in
  let sigma =
    sqrt (Float.max 1e-6 (p_base *. (1. -. p_base)) /. float_of_int mc_samples)
  in
  let band = (5. *. sigma) +. 1e-3 in
  ensure "monte-carlo"
    (fun () ->
      Printf.sprintf "inference %.17g vs MC %.17g (band %.3g)" p_base mc band)
    (Float.abs (p_base -. mc) <= band);
  (* 5. metamorphic scrambles preserve verdict and probability *)
  let verdict g = Option.is_some (Readonce.detect reg g) in
  let base_verdict = verdict f in
  for i = 0 to 2 do
    let rng = Prng.create ~seed:(seed + i) () in
    let g = scramble rng f in
    ensure "metamorphic-verdict"
      (fun () ->
        Printf.sprintf "read-once verdict flipped (%b) on scramble %d"
          base_verdict i)
      (verdict g = base_verdict);
    let p_scrambled = Inference.probability ~readonce reg g in
    ensure "metamorphic-probability"
      (fun () ->
        Printf.sprintf "probability %.17g became %.17g on scramble %d" p_base
          p_scrambled i)
      (Fcmp.approx ~eps:1e-9 p_base p_scrambled)
  done;
  (* 6. generator theory expectations (fresh cases only) *)
  (match expect with
  | Lineage_gen.Unknown -> ()
  | Lineage_gen.Readonce ->
      ensure "expect-readonce"
        (fun () ->
          Printf.sprintf "shape %s should be read-once: %s" case.shape
            (Lineage.to_string f))
        (verdict f)
  | Lineage_gen.Not_readonce ->
      ensure "expect-not-readonce"
        (fun () ->
          Printf.sprintf "shape %s should not be read-once: %s" case.shape
            (Lineage.to_string f))
        (not (verdict f)))

(* ---------- shrinking ---------- *)

(* Structural reduction candidates that strictly shrink the formula; the
   registry is left as-is (unused variables are harmless and keep ids
   stable). *)
let candidates case =
  let f = case.lineage in
  let with_f g = { case with lineage = Lineage.simplify g } in
  let subformulas =
    match f with
    | Lineage.And fs | Lineage.Or fs -> List.map with_f fs
    | Lineage.Not g -> [ with_f g ]
    | _ -> []
  in
  let drops =
    match f with
    | Lineage.And fs when List.length fs > 1 ->
        List.mapi
          (fun i _ -> with_f (Lineage.And (List.filteri (fun j _ -> j <> i) fs)))
          fs
    | Lineage.Or fs when List.length fs > 1 ->
        List.mapi
          (fun i _ -> with_f (Lineage.Or (List.filteri (fun j _ -> j <> i) fs)))
          fs
    | _ -> []
  in
  let substitutions =
    Lineage.vars f
    |> List.concat_map (fun v ->
           [ with_f (Lineage.substitute f v false); with_f (Lineage.substitute f v true) ])
  in
  let size = Lineage.size f in
  subformulas @ drops @ substitutions
  |> List.filter (fun c -> Lineage.size c.lineage < size)

(* ---------- campaigns ---------- *)

let describe case =
  Printf.sprintf "lineage %s, %d vars, %d nodes" case.shape
    (List.length (Lineage.vars case.lineage))
    (Lineage.size case.lineage)

let family ~readonce = { Campaign.codec; check = check_case ~readonce; candidates }

type config = {
  seed : int;
  iters : int;
  readonce : bool;
  corpus_dir : string option;
}

let default_config = { seed = 0; iters = 500; readonce = true; corpus_dir = None }

(* A fresh case's first check also holds it to the generator's theory
   expectation; shrinking and replay check without it. *)
let run config =
  let rng = Prng.create ~seed:config.seed () in
  let fresh () =
    let g = Lineage_gen.gen rng in
    let case = of_gen g in
    (case, check_case ~readonce:config.readonce ~expect:g.Lineage_gen.expect case)
  in
  Campaign.run ?corpus_dir:config.corpus_dir (family ~readonce:config.readonce)
    ~iters:config.iters [ fresh ]
