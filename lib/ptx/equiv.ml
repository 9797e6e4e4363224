(* Equivalence checking for PTX instruction windows: the funnel.

   Modeled on the z80-optimizer's QuickCheck -> MidCheck ->
   ExhaustiveCheck pipeline (SNIPPETS.md §1–3), adapted to this ISA:

   - *Quick*: a handful of fixed test vectors screens candidate
     rewrites; almost everything wrong dies here for the cost of a few
     evaluations.
   - *Bounded*: survivors face an adversarial sweep — the full cross
     product of a corpus of cursed values (NaN payloads, signed zeros,
     infinities, denormals, INT_MIN) for windows of up to two inputs,
     plus a seeded random sweep biased toward the same corpus.  A rule
     that survives is *believed*, not proved.
   - *Exhaustive*: windows whose live-in domain is small enough to
     enumerate completely — all-predicate inputs, or closed (constant)
     windows — are decided, and the resulting rule carries a proof.

   The evaluator mirrors [Gpu.Sim]'s per-lane semantics exactly — the
   same [Instr.*_fn] operator tables, the same IEEE float compares, the
   same integer division-by-zero convention — so "equivalent" here
   means "indistinguishable to the simulator".  Values compare by bits
   ([Int64.bits_of_float]): 0.0 and -0.0 are different values, NaN
   equals NaN of the same payload.

   The same evaluator, extended with a memory log and ambient operands,
   doubles as a translation validator for whole [Ptx.Opt] passes
   ([validate]). *)

open Instr

(* ------------------------------------------------------------------ *)
(* Values and contexts                                                 *)
(* ------------------------------------------------------------------ *)

type value = VF of float | VI of int | VP of bool

let equal_value (a : value) (b : value) : bool =
  match (a, b) with
  | VF x, VF y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | VI x, VI y -> x = y
  | VP x, VP y -> x = y
  | _ -> false

let value_to_string = function
  | VF x -> Printf.sprintf "%h" x
  | VI i -> string_of_int i
  | VP b -> if b then "true" else "false"

(* The evaluator got a program it cannot give meaning to (type-confused
   operand, read of an undefined register).  Verified kernels never
   trigger this; it mirrors [Gpu.Sim]'s launch errors. *)
exception Stuck of string

let stuck fmt = Printf.ksprintf (fun m -> raise (Stuck m)) fmt

type ctx = {
  regs : value Reg.Tbl.t;
  ambient : operand -> value option;  (* [Spec]/[Par] valuation *)
  mem : (space * int, float) Hashtbl.t;
  mem_init : space -> int -> float;  (* deterministic initial memory *)
  mutable stores : (space * int * float) list;  (* most recent first *)
  mutable bars : int;
}

let no_ambient : operand -> value option = fun _ -> None

let make_ctx ?(ambient = no_ambient) ?(mem_init = fun _ _ -> 0.0) (assign : (Reg.t * value) list)
    : ctx =
  let regs = Reg.Tbl.create 16 in
  List.iter (fun (r, v) -> Reg.Tbl.replace regs r v) assign;
  { regs; ambient; mem = Hashtbl.create 16; mem_init; stores = []; bars = 0 }

let reg_value (c : ctx) (r : Reg.t) : value =
  match Reg.Tbl.find_opt c.regs r with
  | Some v -> v
  | None -> stuck "read of undefined register %s" (Reg.to_string r)

(* Operand evaluation in a typed context, exactly as the simulator's
   launch-time [isrc_of]/[fsrc_of]/[psrc_of] resolve operands. *)
let eval_f (c : ctx) (o : operand) : float =
  match o with
  | Reg r -> (
    if Reg.ty r <> Reg.F32 then stuck "register %s in float context" (Reg.to_string r);
    match reg_value c r with VF x -> x | _ -> stuck "non-float value in %s" (Reg.to_string r))
  | Imm_f f -> f
  | Imm_i i -> float_of_int i
  | Spec _ | Par _ -> (
    match c.ambient o with
    | Some (VF x) -> x
    | Some (VI i) -> float_of_int i
    | _ -> stuck "ambient operand %s has no valuation" (Pp.operand o))

let eval_i (c : ctx) (o : operand) : int =
  match o with
  | Reg r -> (
    if Reg.ty r <> Reg.S32 then stuck "register %s in integer context" (Reg.to_string r);
    match reg_value c r with VI x -> x | _ -> stuck "non-integer value in %s" (Reg.to_string r))
  | Imm_i i -> i
  | Imm_f _ -> stuck "float immediate in integer context"
  | Spec _ | Par _ -> (
    match c.ambient o with
    | Some (VI i) -> i
    | _ -> stuck "ambient operand %s has no integer valuation" (Pp.operand o))

let eval_p (c : ctx) (o : operand) : bool =
  match o with
  | Reg r -> (
    if Reg.ty r <> Reg.Pred then stuck "register %s in predicate context" (Reg.to_string r);
    match reg_value c r with VP x -> x | _ -> stuck "non-predicate value in %s" (Reg.to_string r))
  | Imm_i i -> i <> 0
  | _ -> stuck "bad operand in predicate context"

(* Float setp uses IEEE unordered-comparison semantics, as [Gpu.Sim]
   does (any comparison with NaN is false except ne). *)
let ftest (cmp : cmp) (x : float) (y : float) : bool =
  match cmp with
  | CEq -> x = y
  | CNe -> x <> y
  | CLt -> x < y
  | CLe -> x <= y
  | CGt -> x > y
  | CGe -> x >= y

let set (c : ctx) (d : Reg.t) (v : value) : unit = Reg.Tbl.replace c.regs d v

let addr_of (c : ctx) ({ base; offset } : addr) : int = eval_i c base + offset

let load (c : ctx) (sp : space) (a : int) : float =
  match Hashtbl.find_opt c.mem (sp, a) with
  | Some v -> v
  | None ->
    let v = c.mem_init sp a in
    Hashtbl.replace c.mem (sp, a) v;
    v

let step (c : ctx) (i : t) : unit =
  match i with
  | Mov (d, a) -> (
    match Reg.ty d with
    | Reg.F32 -> set c d (VF (eval_f c a))
    | Reg.S32 -> set c d (VI (eval_i c a))
    | Reg.Pred -> set c d (VP (eval_p c a)))
  | F2 (op, d, a, b) -> set c d (VF (fop2_fn op (eval_f c a) (eval_f c b)))
  | F1 (op, d, a) -> set c d (VF (fop1_fn op (eval_f c a)))
  | Fmad (d, a, b, cc) ->
    set c d (VF (Util.Float32.mad (eval_f c a) (eval_f c b) (eval_f c cc)))
  | I2 (op, d, a, b) -> set c d (VI (iop2_fn op (eval_i c a) (eval_i c b)))
  | Imad (d, a, b, cc) -> set c d (VI ((eval_i c a * eval_i c b) + eval_i c cc))
  | Cvt_f2i (d, a) -> set c d (VI (int_of_float (eval_f c a)))
  | Cvt_i2f (d, a) -> set c d (VF (Util.Float32.of_int (eval_i c a)))
  | Setp (cmp, Reg.F32, d, a, b) -> set c d (VP (ftest cmp (eval_f c a) (eval_f c b)))
  | Setp (cmp, (Reg.S32 | Reg.Pred), d, a, b) ->
    set c d (VP (cmp_fn cmp (compare (eval_i c a) (eval_i c b))))
  | Selp (d, a, b, p) -> (
    let take = eval_p c p in
    match Reg.ty d with
    | Reg.F32 ->
      let x = eval_f c a and y = eval_f c b in
      set c d (VF (if take then x else y))
    | Reg.S32 ->
      let x = eval_i c a and y = eval_i c b in
      set c d (VI (if take then x else y))
    | Reg.Pred ->
      let x = eval_p c a and y = eval_p c b in
      set c d (VP (if take then x else y)))
  | Pnot (d, a) -> set c d (VP (not (eval_p c a)))
  | P2 (op, d, a, b) -> set c d (VP (pop2_fn op (eval_p c a) (eval_p c b)))
  | Ld (sp, d, a) -> (
    let v = load c sp (addr_of c a) in
    match Reg.ty d with
    | Reg.F32 -> set c d (VF v)
    | Reg.S32 -> set c d (VI (int_of_float v))
    | Reg.Pred -> stuck "predicate load")
  | St (sp, a, v) ->
    let x =
      match Pp.operand_ty v with
      | Reg.F32 -> eval_f c v
      | Reg.S32 -> float_of_int (eval_i c v)
      | Reg.Pred -> stuck "predicate store"
    in
    let ad = addr_of c a in
    Hashtbl.replace c.mem (sp, ad) x;
    c.stores <- (sp, ad, x) :: c.stores
  | Bar -> c.bars <- c.bars + 1

let run_seq (c : ctx) (seq : t list) : unit = List.iter (step c) seq

(* Evaluate a pure window under [assign]; returns the final value of
   each defined register.  Used by discovery to fold closed windows. *)
let eval_window (assign : (Reg.t * value) list) (seq : t list) : (Reg.t * value) list =
  let c = make_ctx assign in
  run_seq c seq;
  List.map (fun d -> (d, reg_value c d)) (Window.defs seq)

(* ------------------------------------------------------------------ *)
(* Test-vector corpora                                                 *)
(* ------------------------------------------------------------------ *)

let f32_bits b = Util.Float32.of_bits b

(* Quick screen: a few values per class, chosen so single-input windows
   see every one of them — signed zeros and NaN included, so the
   classic signed-zero identity dies in the first eight evaluations. *)
let quick_floats =
  [| 1.0; -2.0; 0.0; -0.0; 0.5; infinity; neg_infinity; f32_bits 0x7fc00000l |]

let quick_ints = [| 0; 1; -1; 2; 7; -8; 0x7fffffff; -0x80000000 |]
let quick_preds = [| true; false |]

(* Adversarial corpus: the values float folklore says will find you. *)
let adversarial_floats =
  [|
    0.0;
    -0.0;
    1.0;
    -1.0;
    2.0;
    0.5;
    -0.5;
    1.5;
    infinity;
    neg_infinity;
    f32_bits 0x7fc00000l (* canonical quiet NaN *);
    f32_bits 0x7fc00001l (* NaN payload *);
    f32_bits 0xffc12345l (* negative NaN, another payload *);
    f32_bits 0x00000001l (* smallest denormal *);
    f32_bits 0x807fffffl (* largest-magnitude negative denormal *);
    f32_bits 0x00800000l (* smallest normal *);
    f32_bits 0x7f7fffffl (* FLT_MAX *);
    f32_bits 0x3f7fffffl (* just under 1.0 *);
  |]

let adversarial_ints =
  [| 0; 1; -1; 2; 3; 31; 32; 63; 64; 100; -7; 0x7fffffff; -0x80000000; max_int; min_int |]

let random_value (rng : Util.Rng.t) (ty : Reg.ty) : value =
  match ty with
  | Reg.F32 -> (
    match Util.Rng.int rng 4 with
    | 0 -> VF adversarial_floats.(Util.Rng.int rng (Array.length adversarial_floats))
    | 1 -> VF (Util.Float32.of_bits (Int32.of_int (Util.Rng.int rng (1 lsl 32))))
    | _ ->
      (* Unit-scale band: full random mantissa, exponent in
         [2^-31, 2^4].  Uniform bit patterns almost never land here
         (the exponent byte is uniform over 256 values), yet this is
         where rounding interacts with the vocabulary's unit-scale
         immediates — the near-miss associativity rewrites
         ((x+1)+x vs 2x+1) are refutable only on this band. *)
      let sign = if Util.Rng.int rng 2 = 0 then 0l else Int32.min_int in
      let e = 96 + Util.Rng.int rng 36 in
      let m = Util.Rng.int rng (1 lsl 23) in
      VF (Util.Float32.of_bits Int32.(logor sign (logor (shift_left (of_int e) 23) (of_int m)))))
  | Reg.S32 -> (
    match Util.Rng.int rng 3 with
    | 0 -> VI adversarial_ints.(Util.Rng.int rng (Array.length adversarial_ints))
    | 1 -> VI (Util.Rng.int rng (1 lsl 32) - (1 lsl 31))
    | _ -> VI (Util.Rng.int rng 65 - 32) (* small, shift- and divisor-sized *))
  | Reg.Pred -> VP (Util.Rng.int rng 2 = 0)

(* One f32 ulp either side of a finite constant. *)
let nudge32 (x : float) (up : bool) : float =
  let b = Util.Float32.to_bits x in
  let towards_zero = (b >= 0l) <> up in
  if Int32.equal b 0l || Int32.equal b Int32.min_int then
    Util.Float32.of_bits (if up then 1l else Int32.logor Int32.min_int 1l)
  else Util.Float32.of_bits (Int32.add b (if towards_zero then -1l else 1l))

(* The immediates of the pair under test, folded into the bounded
   corpus.  A window mentioning the constant c is exactly the window
   whose behaviour can pivot at c — setp.eq %r0, c is constant-false
   on any corpus that misses c — so folklore values alone stop being
   adversarial the moment the vocabulary grows a new immediate. *)
let immediate_values (seqs : t list list) : float list * int list =
  let fs = ref [] and is_ = ref [] in
  List.iter
    (List.iter (fun i ->
         List.iter
           (function
             | Imm_f x ->
               if Float.is_finite x then
                 fs := nudge32 x false :: nudge32 x true :: Float.neg x :: x :: !fs
             | Imm_i c -> is_ := (c + 1) :: (c - 1) :: c :: !is_
             | Reg _ | Par _ | Spec _ -> ())
           (operands i)))
    seqs;
  (List.sort_uniq compare (List.rev !fs), List.sort_uniq compare (List.rev !is_))

let corpus_values ?(extra_floats = []) ?(extra_ints = []) (ty : Reg.ty) : value list =
  match ty with
  | Reg.F32 ->
    Array.to_list (Array.map (fun x -> VF x) adversarial_floats)
    @ List.map (fun x -> VF x) extra_floats
  | Reg.S32 ->
    Array.to_list (Array.map (fun x -> VI x) adversarial_ints)
    @ List.map (fun x -> VI x) extra_ints
  | Reg.Pred -> [ VP true; VP false ]

(* ------------------------------------------------------------------ *)
(* The funnel                                                          *)
(* ------------------------------------------------------------------ *)

type tier = Quick | Bounded | Exhaustive

let tier_name = function Quick -> "quick" | Bounded -> "bounded" | Exhaustive -> "exhaustive"

let tier_of_name = function
  | "quick" -> Some Quick
  | "bounded" -> Some Bounded
  | "exhaustive" -> Some Exhaustive
  | _ -> None

type counterexample = {
  cx_assign : (Reg.t * value) list;  (* the refuting input vector *)
  cx_reg : Reg.t;  (* first output register that disagrees *)
  cx_lhs : value;
  cx_rhs : value;
}

let counterexample_to_string (cx : counterexample) : string =
  Printf.sprintf "%s: %s gives %s vs %s"
    (String.concat ", "
       (List.map (fun (r, v) -> Printf.sprintf "%s=%s" (Reg.to_string r) (value_to_string v))
          cx.cx_assign))
    (Reg.to_string cx.cx_reg) (value_to_string cx.cx_lhs) (value_to_string cx.cx_rhs)

type verdict =
  | Equivalent of tier  (* [Exhaustive]: proved; [Bounded]: survived the sweep *)
  | Refuted of tier * counterexample  (* the tier that found the counterexample *)
  | Unsupported of string  (* the funnel does not quantify over this window *)

(* Seed derived from the pair's text: vectors depend only on the rewrite
   under test, never on enumeration order or worker count. *)
let pair_seed (lhs : t list) (rhs : t list) : int =
  let d = Digest.string (Window.key lhs ^ " => " ^ Window.key rhs) in
  let v = ref 0 in
  String.iteri (fun i ch -> if i < 7 then v := (!v lsl 8) lor Char.code ch) d;
  !v

let check ?(sweep = 128) ?seed (lhs : t list) (rhs : t list) : verdict =
  if not (Window.is_pure lhs && Window.is_pure rhs) then
    Unsupported "window has memory, barrier or ambient operands"
  else
    let lhs_defs = Window.defs lhs in
    let outs = Window.defs rhs in
    let mem_reg rs r = List.exists (Reg.equal r) rs in
    if outs = [] then Unsupported "replacement defines nothing"
    else if not (List.for_all (mem_reg lhs_defs) outs) then
      Unsupported "replacement defines registers outside the window"
    else if
      (* The final value of the window must be among the compared
         outputs, else the "rule" forgets the window's result. *)
      not
        (match List.rev (List.filter_map def lhs) with
        | last :: _ -> mem_reg outs last
        | [] -> false)
    then Unsupported "replacement drops the window's final destination"
    else
      let ins = Window.inputs lhs in
      if not (List.for_all (mem_reg ins) (Window.inputs rhs)) then
        Unsupported "replacement reads registers the window does not"
      else
        let try_vector tier assign =
          let outputs seq =
            let c = make_ctx assign in
            run_seq c seq;
            List.map (reg_value c) outs
          in
          let a = outputs lhs and b = outputs rhs in
          let rec first3 rs xs ys =
            match (rs, xs, ys) with
            | r :: rs', x :: xs', y :: ys' ->
              if equal_value x y then first3 rs' xs' ys'
              else Some (Refuted (tier, { cx_assign = assign; cx_reg = r; cx_lhs = x; cx_rhs = y }))
            | _ -> None
          in
          first3 outs a b
        in
        let rec sweep_vectors tier = function
          | [] -> None
          | v :: rest -> (
            match try_vector tier v with Some r -> Some r | None -> sweep_vectors tier rest)
        in
        (* Tier 1: quick fixed vectors. *)
        let nq = Array.length quick_floats in
        let quick_vecs =
          List.init nq (fun j ->
              List.mapi
                (fun i r ->
                  ( r,
                    match Reg.ty r with
                    | Reg.F32 -> VF quick_floats.((j + i) mod nq)
                    | Reg.S32 -> VI quick_ints.((j + i) mod Array.length quick_ints)
                    | Reg.Pred -> VP quick_preds.((j + i) mod 2) ))
                ins)
        in
        match sweep_vectors Quick quick_vecs with
        | Some r -> r
        | None -> (
          (* Tier 3 short-circuit: domains small enough to enumerate are
             decided outright. *)
          let exhaustive_domain =
            List.for_all (fun r -> Reg.ty r = Reg.Pred) ins && List.length ins <= 10
          in
          if exhaustive_domain then begin
            let rec all_assign = function
              | [] -> [ [] ]
              | r :: rest ->
                let tails = all_assign rest in
                List.concat_map (fun t -> [ (r, VP false) :: t; (r, VP true) :: t ]) tails
            in
            match sweep_vectors Exhaustive (all_assign ins) with
            | Some r -> r
            | None -> Equivalent Exhaustive
          end
          else
            (* Tier 2: adversarial corpus cross product (narrow windows)
               plus a seeded random sweep.  The corpus includes the
               pair's own immediates and their neighbours. *)
            let extra_floats, extra_ints = immediate_values [ lhs; rhs ] in
            let corpus = corpus_values ~extra_floats ~extra_ints in
            let explicit =
              match ins with
              | [ r ] -> List.map (fun v -> [ (r, v) ]) (corpus (Reg.ty r))
              | [ r; s ] ->
                List.concat_map
                  (fun v -> List.map (fun w -> [ (r, v); (s, w) ]) (corpus (Reg.ty s)))
                  (corpus (Reg.ty r))
              | _ -> []
            in
            let rng =
              Util.Rng.create (match seed with Some s -> s | None -> pair_seed lhs rhs)
            in
            let random =
              List.init sweep (fun _ -> List.map (fun r -> (r, random_value rng (Reg.ty r))) ins)
            in
            match sweep_vectors Bounded (explicit @ random) with
            | Some r -> r
            | None -> Equivalent Bounded)

(* ------------------------------------------------------------------ *)
(* Translation validation of whole kernels                             *)
(* ------------------------------------------------------------------ *)

(* [validate orig trans] replays every block of both kernels as
   straight-line per-thread code under common random register, ambient
   and memory valuations, and demands bitwise agreement on the store
   log, the barrier count, and every register the *translated* kernel
   may still read downstream (its per-block live-out).  Registers the
   transformation legitimately deleted — a copy-propagated temporary
   whose def DCE removed — are exactly the ones absent from the
   translated kernel's live-out, so they are not compared (under a
   common seeding they would trivially, and wrongly, mismatch).  This
   is the per-block translation validator for the
   block-structure-preserving [Ptx.Opt] passes and the peephole pass:
   it cannot prove a transformation, but it puts the same adversarial
   machinery behind "this pass did not change my kernel's meaning" as
   behind the rule database. *)

type mismatch = { m_label : string; m_vector : int; m_reason : string }

let mismatch_to_string (m : mismatch) : string =
  Printf.sprintf "block %S, vector %d: %s" m.m_label m.m_vector m.m_reason

let space_code = function Global -> 1 | Shared -> 2 | Const -> 3 | Local -> 4

let validate ?(vectors = 12) ?(seed = 1337) (orig : Prog.t) (trans : Prog.t) :
    (int, mismatch) result =
  let labels k = List.map (fun (b : Prog.block) -> b.Prog.label) k.Prog.blocks in
  if labels orig <> labels trans then
    Error { m_label = "<kernel>"; m_vector = 0; m_reason = "block structure differs" }
  else begin
    let live_out k =
      let cfg = Cfg.of_kernel k in
      let live = Liveness.compute cfg in
      let tbl = Hashtbl.create 16 in
      List.iteri
        (fun i (b : Prog.block) ->
          Hashtbl.replace tbl b.Prog.label (Regbits.elements live.Liveness.live_out.(i)))
        k.Prog.blocks;
      tbl
    in
    let out_t = live_out trans in
    let universe = Reg.Set.union (Prog.all_regs orig) (Prog.all_regs trans) in
    let specials = List.map (fun s -> Spec s) all_specials in
    let exception Found of mismatch in
    try
      for vec = 0 to vectors - 1 do
        let rng = Util.Rng.create ((seed * 1000003) + vec) in
        let assign =
          Reg.Set.fold (fun r acc -> (r, random_value rng (Reg.ty r)) :: acc) universe []
        in
        (* Ambient valuation: small non-negative specials, typed params
           (buffer bases word-aligned). *)
        let ambient_tbl = Hashtbl.create 16 in
        List.iter
          (fun o -> Hashtbl.replace ambient_tbl (Pp.operand o) (VI (Util.Rng.int rng 8)))
          specials;
        List.iter
          (fun (p : Prog.param) ->
            let v =
              match p.Prog.pty with
              | Prog.PF32 -> VF (Util.Float32.of_int (Util.Rng.int rng 17 - 8))
              | Prog.PS32 -> VI (Util.Rng.int rng 64)
              | Prog.PBuf _ -> VI (Util.Rng.int rng 64 * 4)
            in
            Hashtbl.replace ambient_tbl (Pp.operand (Par p.Prog.pname)) v)
          orig.Prog.params;
        let ambient o = Hashtbl.find_opt ambient_tbl (Pp.operand o) in
        let mem_init sp a =
          let r = Util.Rng.create ((seed * 7919) + (space_code sp * 104729) + a) in
          Util.Float32.of_int (Util.Rng.int r 2001 - 1000)
        in
        List.iter2
          (fun (bo : Prog.block) (bt : Prog.block) ->
            let fail reason =
              raise (Found { m_label = bo.Prog.label; m_vector = vec; m_reason = reason })
            in
            if bo.Prog.term <> bt.Prog.term then fail "terminator differs";
            let run body =
              let c = make_ctx ~ambient ~mem_init assign in
              (try run_seq c body with Stuck m -> fail ("stuck: " ^ m));
              c
            in
            let co = run bo.Prog.body and ct = run bt.Prog.body in
            if co.bars <> ct.bars then
              fail (Printf.sprintf "barrier count %d vs %d" co.bars ct.bars);
            let stores c = List.rev c.stores in
            let eq_store (s1, a1, v1) (s2, a2, v2) =
              s1 = s2 && a1 = a2 && Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2)
            in
            if not (List.equal eq_store (stores co) (stores ct)) then fail "store log differs";
            let outs =
              try Hashtbl.find out_t bt.Prog.label with Not_found -> []
            in
            List.iter
              (fun r ->
                let vo = try Some (reg_value co r) with Stuck _ -> None in
                let vt = try Some (reg_value ct r) with Stuck _ -> None in
                match (vo, vt) with
                | Some a, Some b when equal_value a b -> ()
                | None, None -> ()
                | _ ->
                  fail
                    (Printf.sprintf "live-out %s: %s vs %s" (Reg.to_string r)
                       (match vo with Some v -> value_to_string v | None -> "<undef>")
                       (match vt with Some v -> value_to_string v | None -> "<undef>")))
              outs)
          orig.Prog.blocks trans.Prog.blocks
      done;
      Ok vectors
    with Found m -> Error m
  end

(* Version tag of the evaluator semantics and funnel parameters; part of
   the rule database's store key, so a semantics change can never reuse
   rules verified under the old meaning. *)
let semantics_version = "ptx-equiv-v2"
