(* Canonicalized straight-line instruction windows.

   The superoptimizer reasons about *windows*: short sequences of pure
   ALU instructions with registers renamed to a canonical first-
   occurrence numbering, so that [add %f9, %f3, %f3] and
   [add %f1, %f0, %f0] are the same window.  This module provides the
   canonical form, the structural queries the equivalence checker and
   the peephole matcher share, and the bounded enumerators that feed
   rule discovery (the z80-optimizer's "enumerate targets" stage).

   Windows never contain memory operations, barriers, or ambient
   operands ([Spec]/[Par]): a rule must hold for *every* value of its
   input registers, and those operand classes smuggle in context the
   quantification cannot see. *)

open Instr

(* ------------------------------------------------------------------ *)
(* Bitwise structural equality                                         *)
(* ------------------------------------------------------------------ *)

(* Float immediates compare by their bits ([Instr.equal]). *)
let equal_seq (a : t list) (b : t list) : bool = List.equal Instr.equal a b

(* Deterministic text key of a window (Pp round-trips floats). *)
let key (seq : t list) : string = String.concat " " (List.map Pp.instr seq)

(* ------------------------------------------------------------------ *)
(* Structural queries                                                  *)
(* ------------------------------------------------------------------ *)

(* Registers read before any write inside the window, in first-use
   order: the window's inputs, the variables a rule quantifies over. *)
let inputs (seq : t list) : Reg.t list =
  let defined = ref Reg.Set.empty and seen = ref Reg.Set.empty in
  let ins = ref [] in
  List.iter
    (fun i ->
      List.iter
        (fun r ->
          if not (Reg.Set.mem r !defined) && not (Reg.Set.mem r !seen) then begin
            seen := Reg.Set.add r !seen;
            ins := r :: !ins
          end)
        (uses i);
      match def i with Some d -> defined := Reg.Set.add d !defined | None -> ())
    seq;
  List.rev !ins

(* Registers written by the window, in definition order, once each. *)
let defs (seq : t list) : Reg.t list =
  let seen = ref Reg.Set.empty in
  List.filter_map
    (fun i ->
      match def i with
      | Some d when not (Reg.Set.mem d !seen) ->
        seen := Reg.Set.add d !seen;
        Some d
      | _ -> None)
    seq

let pure_instr (i : t) : bool =
  (match i with Ld _ | St _ | Bar -> false | _ -> true)
  && List.for_all (function Spec _ | Par _ -> false | _ -> true) (operands i)

let is_pure (seq : t list) : bool = seq <> [] && List.for_all pure_instr seq

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

(* Occurrence order of registers: per instruction, uses left-to-right,
   then the destination.  The canonical renaming numbers each class by
   first occurrence in this order. *)
let occurrence_order (seq : t list) : Reg.t list =
  List.concat_map (fun i -> uses i @ (match def i with Some d -> [ d ] | None -> [])) seq

let renaming_tbl (seq : t list) : Reg.t Reg.Tbl.t =
  let tbl = Reg.Tbl.create 8 in
  let gen = Reg.Gen.create () in
  List.iter
    (fun r -> if not (Reg.Tbl.mem tbl r) then Reg.Tbl.add tbl r (Reg.Gen.fresh gen (Reg.ty r)))
    (occurrence_order seq);
  tbl

let canonicalize (seq : t list) : t list =
  let tbl = renaming_tbl seq in
  List.map (map_regs (fun r -> Reg.Tbl.find tbl r)) seq

(* The inverse map, canonical register -> concrete register, used by the
   peephole matcher to instantiate a rule's replacement.  The renaming
   is a bijection on the window's registers, so the inverse is total on
   them. *)
let renaming (seq : t list) : Reg.t Reg.Map.t =
  Reg.Tbl.fold (fun concrete canon acc -> Reg.Map.add canon concrete acc) (renaming_tbl seq)
    Reg.Map.empty

let is_canonical (seq : t list) : bool = equal_seq (canonicalize seq) seq

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(* The instruction vocabulary a discovery run draws from.  Smaller
   vocabularies keep longer windows tractable; the defaults are sized so
   a bounded run finishes in seconds. *)
type vocab = {
  fops2 : fop2 list;
  fops1 : fop1 list;
  iops2 : iop2 list;
  cmps : cmp list;
  pops2 : pop2 list;
  mads : bool;  (* Fmad / Imad *)
  selp : bool;
  cvt : bool;
  pnot : bool;
  movs : bool;  (* pointless on the left-hand side, essential on the right *)
  fimms : float list;
  iimms : int list;
}

let default_vocab =
  {
    fops2 = [ FAdd; FSub; FMul; FDiv; FMin; FMax ];
    (* sin/cos have no algebraic identities worth the enumeration cost *)
    fops1 = [ FNeg; FAbs; FSqrt; FRsqrt; FRcp; FEx2; FLg2 ];
    iops2 = [ IAdd; ISub; IMul; IDiv; IRem; IMin; IMax; IAnd; IOr; IXor; IShl; IShr ];
    cmps = [ CEq; CNe; CLt; CGe ];
    pops2 = [ PAnd; POr; PXor ];
    mads = true;
    selp = true;
    cvt = true;
    pnot = true;
    movs = false;
    (* 4 is the word-size scale every lowered address computation
       carries (mad.s32 r, r, 4, 0), so rules over it fire on real
       kernels, not just synthetic windows. *)
    fimms = [ 0.0; -0.0; 1.0; 2.0 ];
    iimms = [ 0; 1; 2; 4 ];
  }

(* Chained pairs explode combinatorially, so the length-2 enumerator
   uses a reduced vocabulary: the fusable arithmetic core, tiny
   immediate pools, no predicates. *)
let pair_vocab =
  {
    default_vocab with
    fops2 = [ FAdd; FSub; FMul ];
    fops1 = [];
    iops2 = [ IAdd; ISub; IMul ];
    cmps = [];
    pops2 = [];
    mads = false;
    selp = false;
    cvt = false;
    pnot = false;
    fimms = [ 1.0 ];
    iimms = [ 1; 2 ];
  }

(* Every single instruction over the given operand pools, destinations
   chosen per class by [dest].  Deterministic order: instruction class,
   then operator, then operand pools left-to-right. *)
let raw_instrs (v : vocab) ~(fpool : operand list) ~(ipool : operand list)
    ~(ppool : operand list) ~(dest : Reg.ty -> Reg.t) : t list =
  let pairs pool f = List.concat_map (fun a -> List.map (fun b -> f a b) pool) pool in
  let triples pool f =
    List.concat_map (fun a -> List.concat_map (fun b -> List.map (fun c -> f a b c) pool) pool) pool
  in
  let movs =
    if not v.movs then []
    else
      List.map (fun a -> Mov (dest Reg.F32, a)) fpool
      @ List.map (fun a -> Mov (dest Reg.S32, a)) ipool
      @ List.map (fun a -> Mov (dest Reg.Pred, a)) ppool
  in
  movs
  @ List.concat_map (fun o -> pairs fpool (fun a b -> F2 (o, dest Reg.F32, a, b))) v.fops2
  @ List.concat_map (fun o -> List.map (fun a -> F1 (o, dest Reg.F32, a)) fpool) v.fops1
  @ (if v.mads then triples fpool (fun a b c -> Fmad (dest Reg.F32, a, b, c)) else [])
  @ List.concat_map (fun o -> pairs ipool (fun a b -> I2 (o, dest Reg.S32, a, b))) v.iops2
  @ (if v.mads then triples ipool (fun a b c -> Imad (dest Reg.S32, a, b, c)) else [])
  @ (if v.cvt then
       List.map (fun a -> Cvt_f2i (dest Reg.S32, a)) fpool
       @ List.map (fun a -> Cvt_i2f (dest Reg.F32, a)) ipool
     else [])
  @ List.concat_map
      (fun c ->
        pairs fpool (fun a b -> Setp (c, Reg.F32, dest Reg.Pred, a, b))
        @ pairs ipool (fun a b -> Setp (c, Reg.S32, dest Reg.Pred, a, b)))
      v.cmps
  @ (if v.selp then
       List.concat_map
         (fun p ->
           pairs fpool (fun a b -> Selp (dest Reg.F32, a, b, p))
           @ pairs ipool (fun a b -> Selp (dest Reg.S32, a, b, p)))
         ppool
     else [])
  @ (if v.pnot then List.map (fun a -> Pnot (dest Reg.Pred, a)) ppool else [])
  @ List.concat_map (fun o -> pairs ppool (fun a b -> P2 (o, dest Reg.Pred, a, b))) v.pops2

let dedup (ws : t list list) : t list list =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun w ->
      let k = key w in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    ws

let imm_f x = Imm_f x
let imm_i x = Imm_i x

(* Enumerate canonical windows of [len] (1 or 2) instructions.  The
   result is deduplicated and its order is a pure function of the
   vocabulary — discovery determinism rests on this. *)
let enumerate ?(vocab = default_vocab) ~(len : int) () : t list list =
  let reg ty i = Reg (Reg.make ty i) in
  let fpool = [ reg Reg.F32 0; reg Reg.F32 1 ] @ List.map imm_f vocab.fimms in
  let ipool = [ reg Reg.S32 0; reg Reg.S32 1 ] @ List.map imm_i vocab.iimms in
  let ppool = [ reg Reg.Pred 0; reg Reg.Pred 1; Imm_i 0; Imm_i 1 ] in
  (* High destination indices keep generated destinations clear of the
     operand registers; canonicalization renumbers everything. *)
  let dest1 ty = Reg.make ty 9 in
  let singles = raw_instrs vocab ~fpool ~ipool ~ppool ~dest:dest1 in
  match len with
  | 1 -> dedup (List.map (fun i -> canonicalize [ i ]) singles)
  | 2 ->
    dedup
      (List.concat_map
         (fun i1 ->
           match def i1 with
           | None -> []
           | Some d1 ->
             let extend pool ty = if Reg.ty d1 = ty then Reg d1 :: pool else pool in
             let seconds =
               raw_instrs vocab ~fpool:(extend fpool Reg.F32) ~ipool:(extend ipool Reg.S32)
                 ~ppool:(extend ppool Reg.Pred)
                 ~dest:(fun ty -> Reg.make ty 8)
             in
             List.filter_map
               (fun i2 ->
                 (* Only chained pairs: the second instruction must read
                    the first's destination, else the pair is two
                    independent length-1 windows. *)
                 if List.exists (Reg.equal d1) (uses i2) then Some (canonicalize [ i1; i2 ])
                 else None)
               seconds)
         singles)
  | n -> invalid_arg (Printf.sprintf "Window.enumerate: unsupported length %d" n)

(* Candidate replacements for [lhs]: all single instructions over the
   window's *input* registers (plus the vocabulary's immediates and any
   caller-supplied constants, e.g. the folded value of a closed window),
   defining the window's final destination.  The caller filters by cost
   and runs the equivalence funnel; anything surviving both is a rule. *)
let rewrites ?(vocab = { default_vocab with movs = true; mads = true })
    ?(extra_fimms = []) ?(extra_iimms = []) (lhs : t list) : t list list =
  match List.rev (List.filter_map def lhs) with
  | [] -> []
  | d_last :: _ ->
    let ins = inputs lhs in
    let of_ty ty = List.filter_map (fun r -> if Reg.ty r = ty then Some (Reg r) else None) ins in
    let fpool = of_ty Reg.F32 @ List.map imm_f (vocab.fimms @ extra_fimms) in
    let ipool = of_ty Reg.S32 @ List.map imm_i (vocab.iimms @ extra_iimms) in
    let ppool = of_ty Reg.Pred @ [ Imm_i 0; Imm_i 1 ] in
    (* The replacement must define exactly the window's final value;
       generators for other classes get a sacrificial destination and
       are filtered out. *)
    let dest ty = if ty = Reg.ty d_last then d_last else Reg.make ty 98 in
    raw_instrs vocab ~fpool ~ipool ~ppool ~dest
    |> List.filter (fun i -> match def i with Some d -> Reg.equal d d_last | None -> false)
    |> List.map (fun i -> [ i ])
