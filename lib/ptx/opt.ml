(* PTX-level scalar optimizations.

   These run after lowering from KIR and are what turns an unrolled
   loop body into the lean code the paper describes (section 2.3):
   address computations fold to constants, redundant [mad]s are shared,
   and dead copies disappear.  All passes are intraprocedural and, with
   the exception of DCE, block-local.

   Pass order used by [run]: copy-prop → cse → dce, iterated to a
   fixed point (bounded).  There is no separate constant-folding pass:
   copy propagation folds each instruction through [simplify] as it
   substitutes operands.  Copy-prop and CSE kill stale facts through
   reverse indexes (source register → its aliases; register → the
   available expressions that mention or hold it), and DCE reads the
   bitset liveness of [Liveness] in one backward walk per block, so a
   round costs time linear in the kernel, not in block length squared. *)

open Instr

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let fold_f2 op a b =
  match op with
  | FAdd -> Util.Float32.add a b
  | FSub -> Util.Float32.sub a b
  | FMul -> Util.Float32.mul a b
  | FDiv -> Util.Float32.div a b
  | FMin -> Util.Float32.min a b
  | FMax -> Util.Float32.max a b

let fold_f1 op a =
  match op with
  | FNeg -> Util.Float32.neg a
  | FAbs -> Util.Float32.abs a
  | FSqrt -> Util.Float32.sqrt a
  | FRsqrt -> Util.Float32.rsqrt a
  | FRcp -> Util.Float32.rcp a
  | FSin -> Util.Float32.sin a
  | FCos -> Util.Float32.cos a
  | FEx2 -> Util.Float32.round (Float.pow 2.0 a)
  | FLg2 -> Util.Float32.round (Float.log a /. Float.log 2.0)

let fold_i2 op a b =
  match op with
  | IAdd -> Some (a + b)
  | ISub -> Some (a - b)
  | IMul -> Some (a * b)
  | IDiv -> if b = 0 then None else Some (a / b)
  | IRem -> if b = 0 then None else Some (a mod b)
  | IMin -> Some (min a b)
  | IMax -> Some (max a b)
  | IAnd -> Some (a land b)
  | IOr -> Some (a lor b)
  | IXor -> Some (a lxor b)
  | IShl -> Some (a lsl b)
  | IShr -> Some (a asr b)

let fold_cmp c compare_result =
  match c with
  | CEq -> compare_result = 0
  | CNe -> compare_result <> 0
  | CLt -> compare_result < 0
  | CLe -> compare_result <= 0
  | CGt -> compare_result > 0
  | CGe -> compare_result >= 0

let is_neg_zero z = z = 0.0 && Float.sign_bit z
let is_pos_zero z = z = 0.0 && not (Float.sign_bit z)

(* One instruction, already copy/constant-propagated: try to simplify.
   Returns a replacement instruction (often a [Mov] of an immediate,
   which later copy propagation then erases). *)
let simplify (i : t) : t =
  match i with
  | F2 (op, d, Imm_f a, Imm_f b) -> Mov (d, Imm_f (fold_f2 op a b))
  | F1 (op, d, Imm_f a) -> Mov (d, Imm_f (fold_f1 op a))
  | Fmad (d, Imm_f a, Imm_f b, Imm_f c) ->
    Mov (d, Imm_f (Util.Float32.mad a b c))
  | I2 (op, d, Imm_i a, Imm_i b) -> (
    match fold_i2 op a b with Some r -> Mov (d, Imm_i r) | None -> i)
  | Imad (d, Imm_i a, Imm_i b, Imm_i c) -> Mov (d, Imm_i ((a * b) + c))
  (* Algebraic identities that matter for address arithmetic. *)
  | I2 (IAdd, d, a, Imm_i 0) | I2 (IAdd, d, Imm_i 0, a) -> Mov (d, a)
  | I2 (ISub, d, a, Imm_i 0) -> Mov (d, a)
  | I2 (IMul, d, a, Imm_i 1) | I2 (IMul, d, Imm_i 1, a) -> Mov (d, a)
  | I2 (IMul, d, _, Imm_i 0) | I2 (IMul, d, Imm_i 0, _) -> Mov (d, Imm_i 0)
  | Imad (d, a, Imm_i 1, Imm_i 0) -> Mov (d, a)
  | Imad (d, _, Imm_i 0, c) | Imad (d, Imm_i 0, _, c) -> Mov (d, c)
  | Imad (d, a, Imm_i 1, c) -> I2 (IAdd, d, a, c)
  | Imad (d, a, b, Imm_i 0) -> I2 (IMul, d, a, b)
  (* Signed zero: [x + (+0.0)] is +0.0 when x = -0.0, not x, so only a
     -0.0 addend is an identity (and only a +0.0 subtrahend).  The OCaml
     pattern [Imm_f 0.0] matches both zeros, hence the guards. *)
  | F2 (FAdd, d, a, Imm_f z) when is_neg_zero z -> Mov (d, a)
  | F2 (FAdd, d, Imm_f z, a) when is_neg_zero z -> Mov (d, a)
  | F2 (FSub, d, a, Imm_f z) when is_pos_zero z -> Mov (d, a)
  | F2 (FMul, d, a, Imm_f 1.0) | F2 (FMul, d, Imm_f 1.0, a) -> Mov (d, a)
  | Fmad (d, a, Imm_f 1.0, c) -> F2 (FAdd, d, a, c)
  | Fmad (d, a, b, Imm_f z) when is_neg_zero z -> F2 (FMul, d, a, b)
  | Setp (c, Reg.S32, d, Imm_i a, Imm_i b) ->
    Mov (d, Imm_i (if fold_cmp c (compare a b) then 1 else 0))
  | Selp (d, a, _, Imm_i 1) -> Mov (d, a)
  | Selp (d, _, b, Imm_i 0) -> Mov (d, b)
  | _ -> i

(* ------------------------------------------------------------------ *)
(* Block-local copy & constant propagation                             *)
(* ------------------------------------------------------------------ *)

(* Within a block, [mov d, src] makes [d] an alias for [src] until
   either is redefined.  Propagating into uses exposes folding and CSE
   opportunities; the movs themselves die in DCE.  Predicate registers
   holding [Imm_i 0/1] are treated as constants by [simplify]. *)
let propagate_block (body : t list) : t list =
  let env : operand Reg.Tbl.t = Reg.Tbl.create 16 in
  (* Reverse index: source register -> registers recorded as its
     aliases.  Entries go stale when an alias is rebound; [kill]
     re-checks each one against [env]. *)
  let aliases : Reg.t list Reg.Tbl.t = Reg.Tbl.create 16 in
  let kill d =
    Reg.Tbl.remove env d;
    (* Any alias whose source was [d] is now stale. *)
    match Reg.Tbl.find_opt aliases d with
    | None -> ()
    | Some rs ->
      Reg.Tbl.remove aliases d;
      List.iter
        (fun r ->
          match Reg.Tbl.find_opt env r with
          | Some (Reg s) when Reg.equal s d -> Reg.Tbl.remove env r
          | _ -> ())
        rs
  in
  let subst o =
    match o with
    | Reg r -> ( match Reg.Tbl.find_opt env r with Some v -> v | None -> o)
    | _ -> o
  in
  List.map
    (fun i ->
      let i = map_uses subst i in
      let i = simplify i in
      (match def i with Some d -> kill d | None -> ());
      (match i with
      | Mov (d, src) -> (
        match src with
        | Reg s when Reg.equal s d -> ()
        | Reg s ->
          Reg.Tbl.replace env d src;
          Reg.Tbl.replace aliases s
            (d :: Option.value ~default:[] (Reg.Tbl.find_opt aliases s))
        | Imm_f _ | Imm_i _ | Spec _ | Par _ -> Reg.Tbl.replace env d src)
      | _ -> ());
      i)
    body

(* ------------------------------------------------------------------ *)
(* Block-local common subexpression elimination                        *)
(* ------------------------------------------------------------------ *)

(* A pure instruction keyed by its opcode and operands.  Loads are not
   pure (memory may change); [Mov] is handled by copy propagation. *)
type opcode =
  | OF2 of fop2
  | OF1 of fop1
  | OFmad
  | OI2 of iop2
  | OImad
  | OCvtFI
  | OCvtIF
  | OSetp of cmp * Reg.ty
  | OSelp
  | OPnot
  | OP2 of pop2

type key = opcode * operand list

let key_of (i : t) : (key * Reg.t) option =
  match i with
  | F2 (o, d, a, b) -> Some ((OF2 o, [ a; b ]), d)
  | F1 (o, d, a) -> Some ((OF1 o, [ a ]), d)
  | Fmad (d, a, b, c) -> Some ((OFmad, [ a; b; c ]), d)
  | I2 (o, d, a, b) -> Some ((OI2 o, [ a; b ]), d)
  | Imad (d, a, b, c) -> Some ((OImad, [ a; b; c ]), d)
  | Cvt_f2i (d, a) -> Some ((OCvtFI, [ a ]), d)
  | Cvt_i2f (d, a) -> Some ((OCvtIF, [ a ]), d)
  | Setp (c, ty, d, a, b) -> Some ((OSetp (c, ty), [ a; b ]), d)
  | Selp (d, a, b, p) -> Some ((OSelp, [ a; b; p ]), d)
  | Pnot (d, a) -> Some ((OPnot, [ a ]), d)
  | P2 (o, d, a, b) -> Some ((OP2 o, [ a; b ]), d)
  | Mov _ | Ld _ | St _ | Bar -> None

let key_uses ((_, args) : key) (d : Reg.t) : bool =
  List.exists (function Reg r' -> Reg.equal r' d | _ -> false) args

(* Immediates compare bitwise: under structural equality 0.0 and -0.0
   (and every NaN) are one key, and reusing [x * 0.0] for [x * -0.0]
   flips the sign of a zero product. *)
module Avail = Hashtbl.Make (struct
  type t = key

  let equal ((o1, a1) : key) ((o2, a2) : key) = o1 = o2 && List.equal equal_operand a1 a2

  let hash ((o, args) : key) =
    List.fold_left
      (fun h a ->
        (h * 31)
        + match a with Reg r -> Reg.hash r | Imm_i n -> n | a -> Hashtbl.hash a)
      (Hashtbl.hash o) args
end)

let cse_block (body : t list) : t list =
  let avail : Reg.t Avail.t = Avail.create 16 in
  (* Reverse index: register -> the available keys that mention it as
     an operand or hold it as their value.  Entries go stale when a key
     is killed and re-recorded; [kill] re-checks each one. *)
  let index : key list Reg.Tbl.t = Reg.Tbl.create 16 in
  let note r k =
    Reg.Tbl.replace index r (k :: Option.value ~default:[] (Reg.Tbl.find_opt index r))
  in
  let kill d =
    (* Remove every available expression mentioning [d] (as source or
       destination). *)
    match Reg.Tbl.find_opt index d with
    | None -> ()
    | Some ks ->
      Reg.Tbl.remove index d;
      List.iter
        (fun k ->
          match Avail.find_opt avail k with
          | Some r when Reg.equal r d || key_uses k d -> Avail.remove avail k
          | _ -> ())
        ks
  in
  List.map
    (fun i ->
      match key_of i with
      | Some (k, d) -> (
        match Avail.find_opt avail k with
        | Some prev when not (Reg.equal prev d) ->
          kill d;
          Mov (d, Reg prev)
        | _ ->
          kill d;
          (* An instruction whose destination is one of its own operands
             (e.g. [add f1, f1, f1]) computes its key from the OLD value
             of [d]; recording it as available would equate it with later
             occurrences built from the new value. *)
          if not (key_uses k d) then begin
            Avail.replace avail k d;
            note d k;
            List.iter (function Reg r -> note r k | _ -> ()) (snd k)
          end;
          i)
      | None ->
        (match def i with Some d -> kill d | None -> ());
        i)
    body

(* ------------------------------------------------------------------ *)
(* Dead code elimination (global, liveness-based)                      *)
(* ------------------------------------------------------------------ *)

(* Instructions with no side effect whose destination is dead are
   removed.  Loads are conservatively kept only if their result is
   used (a dead load still costs bandwidth on hardware, but no
   reasonable compiler emits one — ours may, transiently, after CSE).
   Liveness is judged on the input kernel, so one call removes the
   last link of a dead chain only; the fixpoint loop removes the
   rest in later rounds. *)
let dce (k : Prog.t) : Prog.t =
  let cfg = Cfg.of_kernel k in
  let live = Liveness.compute cfg in
  let blocks =
    List.mapi
      (fun bi (b : Prog.block) ->
        let body = ref [] in
        Liveness.walk_back live cfg bi (fun _ i after ->
            match def i with
            | Some d when not (Regbits.mem after d) -> ()
            | _ -> body := i :: !body);
        { b with body = !body })
      k.blocks
  in
  { k with blocks }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let map_blocks f (k : Prog.t) : Prog.t =
  { k with blocks = List.map (fun (b : Prog.block) -> { b with body = f b.body }) k.blocks }

(* The individual passes, exposed so a pass manager (Tuner.Pipeline)
   can schedule, verify and time them one by one.  [run] below remains
   the reference composition. *)
let propagate (k : Prog.t) : Prog.t = map_blocks propagate_block k
let cse (k : Prog.t) : Prog.t = map_blocks cse_block k

let one_round (k : Prog.t) : Prog.t = k |> propagate |> cse |> dce

(* The bound on optimization rounds, here and in the pass manager's
   fixpoint, which must reproduce [run] byte for byte: a paper-scale SAD
   kernel takes about five, since DCE removes one link of a dead chain
   per round. *)
let max_rounds = 8

(* Run optimization rounds to a fixed point, at most [max_rounds]. *)
let run (k : Prog.t) : Prog.t =
  let rec go k n =
    if n = 0 then k
    else
      let k' = one_round k in
      if Prog.equal k' k then k else go k' (n - 1)
  in
  go k max_rounds
