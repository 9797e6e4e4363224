(* PTX-level scalar optimizations.

   These run after lowering from KIR and are what turns an unrolled
   loop body into the lean code the paper describes (section 2.3):
   address computations fold to constants, redundant [mad]s are shared,
   and dead copies disappear.  All passes are intraprocedural and, with
   the exception of DCE, block-local.

   Pass order used by [fixpoint]: value-number → dce, iterated to a
   fixed point (bounded); [run] is that loop with nothing watching.
   Value numbering is one forward walk per block that does copy and
   constant propagation, folding through [simplify], and common
   subexpression elimination together, so a repeat it rewrites to a
   copy is forwarded in the same walk.  It kills stale facts through
   reverse indexes (source register → its aliases; register → the
   available expressions that mention or hold it), and DCE reads the
   bitset liveness of [Liveness] in one backward walk per block, so a
   round costs time linear in the kernel, not in block length
   squared. *)

open Instr

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let is_neg_zero z = z = 0.0 && Float.sign_bit z
let is_pos_zero z = z = 0.0 && not (Float.sign_bit z)

(* One instruction, already copy/constant-propagated: try to simplify.
   Returns a replacement instruction (often a [Mov] of an immediate,
   which the rest of the value-numbering walk then propagates).  Folds
   evaluate with [Instr]'s operator tables, except that a division or
   remainder by zero is left unfolded. *)
let simplify (i : t) : t =
  match i with
  | F2 (op, d, Imm_f a, Imm_f b) -> Mov (d, Imm_f (fop2_fn op a b))
  | F1 (op, d, Imm_f a) -> Mov (d, Imm_f (fop1_fn op a))
  | Fmad (d, Imm_f a, Imm_f b, Imm_f c) ->
    Mov (d, Imm_f (Util.Float32.mad a b c))
  | I2 ((IDiv | IRem), _, _, Imm_i 0) -> i
  | I2 (op, d, Imm_i a, Imm_i b) -> Mov (d, Imm_i (iop2_fn op a b))
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
    Mov (d, Imm_i (if cmp_fn c (compare a b) then 1 else 0))
  | Selp (d, a, _, Imm_i 1) -> Mov (d, a)
  | Selp (d, _, b, Imm_i 0) -> Mov (d, b)
  | _ -> i

(* ------------------------------------------------------------------ *)
(* Block-local value numbering                                         *)
(* ------------------------------------------------------------------ *)

(* A pure instruction keyed by its opcode and operands.  Loads are not
   pure (memory may change); [Mov] feeds the copy environment instead. *)
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

(* One forward walk: each instruction's operands are substituted
   through the copy/constant environment ([mov d, src] makes [d] an
   alias for [src] until either is redefined), [simplify] folds it, and
   its key is looked up among the available expressions.  On a hit the
   instruction becomes [mov d, prev] and [d] becomes an alias of
   [prev], so the rest of the block reads [prev] in the same walk: a
   chain of repeats ([mul] feeding [mad] feeding an address) collapses
   in one walk, not one round per link.  The movs die in DCE.
   Predicate registers holding [Imm_i 0/1] are constants to
   [simplify]. *)
let value_number_block (body : t list) : t list =
  let env : operand Reg.Tbl.t = Reg.Tbl.create 16 in
  let avail : Reg.t Avail.t = Avail.create 16 in
  (* Reverse indexes, so a redefinition kills only what it touches:
     source register -> the registers recorded as its aliases, and
     register -> the available keys that mention it as an operand or
     hold it as their value.  Entries go stale when an alias is rebound
     or a key re-recorded; [kill] re-checks each one. *)
  let aliases : Reg.t list Reg.Tbl.t = Reg.Tbl.create 16 in
  let index : key list Reg.Tbl.t = Reg.Tbl.create 16 in
  let note tbl r x =
    Reg.Tbl.replace tbl r (x :: Option.value ~default:[] (Reg.Tbl.find_opt tbl r))
  in
  let kill d =
    Reg.Tbl.remove env d;
    (match Reg.Tbl.find_opt aliases d with
    | None -> ()
    | Some rs ->
      Reg.Tbl.remove aliases d;
      List.iter
        (fun r ->
          match Reg.Tbl.find_opt env r with
          | Some (Reg s) when Reg.equal s d -> Reg.Tbl.remove env r
          | _ -> ())
        rs);
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
  let bind d src =
    match src with
    | Reg s when Reg.equal s d -> ()
    | Reg s ->
      Reg.Tbl.replace env d src;
      note aliases s d
    | Imm_f _ | Imm_i _ | Spec _ | Par _ -> Reg.Tbl.replace env d src
  in
  let subst o =
    match o with
    | Reg r -> ( match Reg.Tbl.find_opt env r with Some v -> v | None -> o)
    | _ -> o
  in
  List.map
    (fun i ->
      let i = simplify (map_uses subst i) in
      match key_of i with
      | Some (k, d) -> (
        (* Looked up before [kill d]: [add d, d, x] repeating an earlier
           [add p, d, x] is [p], though the key mentions [d]. *)
        match Avail.find_opt avail k with
        | Some prev when not (Reg.equal prev d) ->
          kill d;
          bind d (Reg prev);
          Mov (d, Reg prev)
        | _ ->
          kill d;
          (* An instruction whose destination is one of its own operands
             (e.g. [add f1, f1, f1]) computes its key from the OLD value
             of [d]; recording it as available would equate it with later
             occurrences built from the new value. *)
          if not (key_uses k d) then begin
            Avail.replace avail k d;
            note index d k;
            List.iter (function Reg r -> note index r k | _ -> ()) (snd k)
          end;
          i)
      | None ->
        (match def i with Some d -> kill d | None -> ());
        (match i with Mov (d, src) -> bind d src | _ -> ());
        i)
    body

(* ------------------------------------------------------------------ *)
(* Dead code elimination (global, liveness-based)                      *)
(* ------------------------------------------------------------------ *)

(* Instructions with no side effect whose destination is dead are
   removed.  Loads are conservatively kept only if their result is
   used (a dead load still costs bandwidth on hardware, but no
   reasonable compiler emits one — ours may, transiently, after value
   numbering).
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

let value_number (k : Prog.t) : Prog.t = map_blocks value_number_block k

(* Run value-number → dce rounds until a round leaves the kernel
   unchanged ([Prog.equal]) or eight rounds have run.  Every app
   lowering settles in two: the first rewrites, the second confirms.
   [apply ~round name pass k] runs one named pass of round [round]
   (counted from 1) on [k]; the pass manager (Tuner.Pipeline) times and
   traces each one through it. *)
let fixpoint (apply : round:int -> string -> (Prog.t -> Prog.t) -> Prog.t -> Prog.t)
    (k : Prog.t) : Prog.t =
  let max_rounds = 8 in
  let rec go k round =
    if round > max_rounds then k
    else
      let k' =
        List.fold_left
          (fun k (name, pass) -> apply ~round name pass k)
          k
          [ ("value-number", value_number); ("dce", dce) ]
      in
      if Prog.equal k' k then k else go k' (round + 1)
  in
  go k 1

let run : Prog.t -> Prog.t = fixpoint (fun ~round:_ _ pass k -> pass k)
