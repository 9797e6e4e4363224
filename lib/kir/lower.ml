(* Lowering KIR to the PTX-like ISA.

   Expression-level codegen with mad fusion and [reg+imm] addressing
   (constant components of array indices fold into the memory operand's
   byte offset, so unrolled bodies share one base-address computation —
   the behaviour the paper highlights when reading -ptx dumps).

   Structured control flow maps to blocks with explicit reconvergence
   labels for the SIMT stack; every block carries its expected
   executions per thread (the [weight]), computed from static loop trip
   counts, which is what makes the paper's metrics computable without
   manual annotation. *)

open Ast
module I = Ptx.Instr
module R = Ptx.Reg

exception Lower_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

let ptx_ty = function F32 -> R.F32 | S32 -> R.S32 | Bool -> R.Pred

let spec_to_ptx = function
  | TidX -> I.Tid_x
  | TidY -> I.Tid_y
  | BidX -> I.Ctaid_x
  | BidY -> I.Ctaid_y
  | BdimX -> I.Ntid_x
  | BdimY -> I.Ntid_y
  | GdimX -> I.Nctaid_x
  | GdimY -> I.Nctaid_y

(* A memory-access site: one KIR array load or store, identified by the
   position of the Ld/St instruction it lowered to.  The static
   analyzer ([Analysis]) re-walks the KIR in lowering order to pair
   each site with an affine index form, and the simulator's per-site
   dynamic counters are keyed by the same (label, index), so static
   predictions and dynamic counts can be diffed per site. *)
type site = {
  sid : int;  (* 0-based, in emission order *)
  s_array : string;
  s_space : I.space;
  s_kind : [ `Load | `Store ];
  s_label : string;  (* PTX block label the access lowered into *)
  s_index : int;  (* instruction index within that block's body *)
}

type st = {
  gen : R.Gen.t;
  tenv : Typecheck.env;  (* for expression typing during lowering *)
  regs : (string, R.t) Hashtbl.t;  (* variable -> register *)
  arrays : (string, I.space * I.operand (* base *)) Hashtbl.t;
  mutable label_counter : int;
  mutable cur_label : string;
  mutable cur_weight : float;
  mutable cur_body : I.t list;  (* reversed *)
  mutable done_blocks : Ptx.Prog.block list;  (* reversed *)
  mutable sites : site list;  (* reversed *)
  mutable next_sid : int;
}

let fresh_label st prefix =
  let n = st.label_counter in
  st.label_counter <- n + 1;
  Printf.sprintf "%s%d" prefix n

let emit st i = st.cur_body <- i :: st.cur_body

let finish st (term : Ptx.Prog.term) =
  st.done_blocks <-
    Ptx.Prog.
      { label = st.cur_label; weight = st.cur_weight; body = List.rev st.cur_body; term }
    :: st.done_blocks

let start st label weight =
  st.cur_label <- label;
  st.cur_weight <- weight;
  st.cur_body <- []

(* Must be called immediately before [emit]ing the Ld/St so the
   recorded instruction index matches the instruction's final position
   in the (unoptimized) block body. *)
let record_site st arr space kind =
  let s =
    {
      sid = st.next_sid;
      s_array = arr;
      s_space = space;
      s_kind = kind;
      s_label = st.cur_label;
      s_index = List.length st.cur_body;
    }
  in
  st.next_sid <- st.next_sid + 1;
  st.sites <- s :: st.sites

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let type_of st e = Typecheck.type_of_expr st.tenv e

let fop2_of = function
  | Add -> I.FAdd
  | Sub -> I.FSub
  | Mul -> I.FMul
  | Div -> I.FDiv
  | Min -> I.FMin
  | Max -> I.FMax
  | _ -> fail "not a float arithmetic operator"

let iop2_of = function
  | Add -> I.IAdd
  | Sub -> I.ISub
  | Mul -> I.IMul
  | Div -> I.IDiv
  | Rem -> I.IRem
  | Min -> I.IMin
  | Max -> I.IMax
  | And -> I.IAnd
  | Or -> I.IOr
  | Xor -> I.IXor
  | Shl -> I.IShl
  | Shr -> I.IShr
  | _ -> fail "not an integer operator"

let cmp_of = function
  | Eq -> I.CEq
  | Ne -> I.CNe
  | Lt -> I.CLt
  | Le -> I.CLe
  | Gt -> I.CGt
  | Ge -> I.CGe
  | _ -> fail "not a comparison"

let is_cmp = function Eq | Ne | Lt | Le | Gt | Ge -> true | _ -> false

(* Split an integer index expression into (dynamic part, constant
   addend); the constant becomes the memory operand's byte offset. *)
let rec split_const (e : expr) : expr option * int =
  match e with
  | Int c -> (None, c)
  | Bin (Add, a, b) -> (
    let da, ca = split_const a and db, cb = split_const b in
    match (da, db) with
    | None, d | d, None -> (d, ca + cb)
    | Some da', Some db' -> (Some (Bin (Add, da', db')), ca + cb))
  | Bin (Sub, a, Int c) ->
    let da, ca = split_const a in
    (da, ca - c)
  | _ -> (Some e, 0)

(* Lower an expression to an operand, emitting instructions as
   needed.  [into] forces the result into that register (used for
   bindings and assignments, enabling single-instruction accumulator
   updates like mad f_sum, a, b, f_sum). *)
let rec lower_expr ?into (st : st) (e : expr) : I.operand =
  let ty = type_of st e in
  let result (op : I.operand) : I.operand =
    match into with
    | None -> op
    | Some d ->
      emit st (I.Mov (d, op));
      I.Reg d
  in
  let dest () : R.t =
    match into with Some d -> d | None -> R.Gen.fresh st.gen (ptx_ty ty)
  in
  match e with
  | Int n -> result (I.Imm_i n)
  | Flt x -> result (I.Imm_f x)
  | Bool b -> result (I.Imm_i (if b then 1 else 0))
  | Var x -> (
    match Hashtbl.find_opt st.regs x with
    | Some r -> result (I.Reg r)
    | None -> fail "lower: unbound variable %S" x)
  | Param p -> result (I.Par p)
  | Special s -> result (I.Spec (spec_to_ptx s))
  | Select (c, a, b) ->
    let pc = lower_expr st c in
    let oa = lower_expr st a in
    let ob = lower_expr st b in
    let d = dest () in
    emit st (I.Selp (d, oa, ob, pc));
    I.Reg d
  | Un (op, a) -> (
    match op with
    | ToF ->
      let oa = lower_expr st a in
      let d = dest () in
      emit st (I.Cvt_i2f (d, oa));
      I.Reg d
    | ToI ->
      let oa = lower_expr st a in
      let d = dest () in
      emit st (I.Cvt_f2i (d, oa));
      I.Reg d
    | Not ->
      let oa = lower_expr st a in
      let d = dest () in
      emit st (I.Pnot (d, oa));
      I.Reg d
    | Neg when ty = S32 ->
      let oa = lower_expr st a in
      let d = dest () in
      emit st (I.I2 (I.ISub, d, I.Imm_i 0, oa));
      I.Reg d
    | Abs when ty = S32 ->
      let oa = lower_expr st a in
      let neg = R.Gen.fresh st.gen R.S32 in
      emit st (I.I2 (I.ISub, neg, I.Imm_i 0, oa));
      let d = dest () in
      emit st (I.I2 (I.IMax, d, oa, I.Reg neg));
      I.Reg d
    | Neg | Abs | Sqrt | Rsqrt | Rcp | Sin | Cos ->
      let fop =
        match op with
        | Neg -> I.FNeg
        | Abs -> I.FAbs
        | Sqrt -> I.FSqrt
        | Rsqrt -> I.FRsqrt
        | Rcp -> I.FRcp
        | Sin -> I.FSin
        | Cos -> I.FCos
        | _ -> assert false
      in
      let oa = lower_expr st a in
      let d = dest () in
      emit st (I.F1 (fop, d, oa));
      I.Reg d)
  | Bin (op, a, b) when is_cmp op ->
    let ta = type_of st a in
    let oa = lower_expr st a in
    let ob = lower_expr st b in
    let d = dest () in
    emit st (I.Setp (cmp_of op, ptx_ty ta, d, oa, ob));
    I.Reg d
  | Bin (LAnd, a, b) ->
    let oa = lower_expr st a in
    let ob = lower_expr st b in
    let d = dest () in
    emit st (I.P2 (I.PAnd, d, oa, ob));
    I.Reg d
  | Bin (LOr, a, b) ->
    let oa = lower_expr st a in
    let ob = lower_expr st b in
    let d = dest () in
    emit st (I.P2 (I.POr, d, oa, ob));
    I.Reg d
  | Bin (Add, Bin (Mul, ma, mb), c) | Bin (Add, c, Bin (Mul, ma, mb)) ->
    (* mad fusion *)
    let oma = lower_expr st ma in
    let omb = lower_expr st mb in
    let oc = lower_expr st c in
    let d = dest () in
    emit st (if ty = F32 then I.Fmad (d, oma, omb, oc) else I.Imad (d, oma, omb, oc));
    I.Reg d
  | Bin (op, a, b) ->
    let oa = lower_expr st a in
    let ob = lower_expr st b in
    let d = dest () in
    emit st (if ty = F32 then I.F2 (fop2_of op, d, oa, ob) else I.I2 (iop2_of op, d, oa, ob));
    I.Reg d
  | Ld (arr, idx) ->
    let space, addr = lower_address st arr idx in
    let d = dest () in
    record_site st arr space `Load;
    emit st (I.Ld (space, d, addr));
    I.Reg d

(* Byte-address computation for array element [idx]:
   constant components fold into the operand offset; a dynamic
   component costs one mad.s32 (index*4 + base). *)
and lower_address (st : st) (arr : string) (idx : expr) : I.space * I.addr =
  let space, base =
    match Hashtbl.find_opt st.arrays arr with
    | Some sb -> sb
    | None -> fail "lower: unknown array %S" arr
  in
  let dyn, c = split_const idx in
  match dyn with
  | None -> (
    match base with
    | I.Imm_i b -> (space, { I.base = I.Imm_i (b + (4 * c)); offset = 0 })
    | _ -> (space, { I.base; offset = 4 * c }))
  | Some d ->
    let od = lower_expr st d in
    let r = R.Gen.fresh st.gen R.S32 in
    emit st (I.Imad (r, od, I.Imm_i 4, base));
    (space, { I.base = I.Reg r; offset = 4 * c })

(* Lower a boolean expression into a predicate *register* (terminators
   need one). *)
let lower_pred (st : st) (e : expr) : R.t =
  match lower_expr st e with
  | I.Reg r when R.ty r = R.Pred -> r
  | op ->
    let d = R.Gen.fresh st.gen R.Pred in
    emit st (I.Mov (d, op));
    d

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Register the variable type in the lowering type-environment. *)
let declare st x ty mut = Hashtbl.replace st.tenv.Typecheck.vars x (ty, mut)

(* Lower a statement list within weight [w]; returns false if control
   cannot fall through (the list ended in Return). *)
let rec lower_stmts (st : st) (w : float) (ss : stmt list) : bool =
  match ss with
  | [] -> true
  | s :: rest -> (
    match s with
    | Let (x, ty, e) | Mut (x, ty, e) ->
      let d = R.Gen.fresh st.gen (ptx_ty ty) in
      Hashtbl.replace st.regs x d;
      declare st x ty (match s with Mut _ -> true | _ -> false);
      ignore (lower_expr ~into:d st e);
      lower_stmts st w rest
    | Assign (x, e) ->
      let d =
        match Hashtbl.find_opt st.regs x with
        | Some r -> r
        | None -> fail "lower: assignment to unbound %S" x
      in
      ignore (lower_expr ~into:d st e);
      lower_stmts st w rest
    | Store (arr, idx, value) ->
      let ov = lower_expr st value in
      let space, addr = lower_address st arr idx in
      record_site st arr space `Store;
      emit st (I.St (space, addr, ov));
      lower_stmts st w rest
    | Sync ->
      emit st I.Bar;
      lower_stmts st w rest
    | Return ->
      finish st Ptx.Prog.Ret;
      (* Anything after Return is unreachable; a fresh dead block keeps
         the structure well-formed if a generator ever emits such
         code. *)
      if rest <> [] then begin
        start st (fresh_label st "DEAD") 0.0;
        ignore (lower_stmts st 0.0 rest)
      end;
      false
    | If (c, t, e) ->
      let p = lower_pred st c in
      let l_then = fresh_label st "THEN" in
      let l_else = if e = [] then None else Some (fresh_label st "ELSE") in
      let l_end = fresh_label st "ENDIF" in
      let if_false = match l_else with Some l -> l | None -> l_end in
      finish st (Ptx.Prog.Br { pred = p; negate = false; if_true = l_then; if_false; reconv = l_end });
      start st l_then w;
      let t_falls = lower_stmts st w t in
      if t_falls then finish st (Ptx.Prog.Jump l_end);
      (match l_else with
      | Some l ->
        start st l w;
        let e_falls = lower_stmts st w e in
        if e_falls then finish st (Ptx.Prog.Jump l_end)
      | None -> ());
      start st l_end w;
      lower_stmts st w rest
    | For l ->
      let trip =
        match static_trip l with
        | Some t -> float_of_int t
        | None -> 1.0 (* metrics degrade gracefully; execution is exact *)
      in
      let step =
        match l.step with Int s -> s | _ -> fail "lower: loop step must be a literal"
      in
      (* Evaluate bounds in the preheader. *)
      let o_lo = lower_expr st l.lo in
      let o_hi = lower_expr st l.hi in
      (* Materialize a stable bound register if dynamic (an operand of
         Imm/Par kind is already stable). *)
      let r_i = R.Gen.fresh st.gen R.S32 in
      Hashtbl.replace st.regs l.var r_i;
      declare st l.var S32 true;
      emit st (I.Mov (r_i, o_lo));
      let l_hdr = fresh_label st "LOOP" in
      let l_body = fresh_label st "BODY" in
      let l_exit = fresh_label st "EXIT" in
      finish st (Ptx.Prog.Jump l_hdr);
      (* Header: executes trip+1 times per entry. *)
      start st l_hdr (w *. (trip +. 1.0));
      let p = R.Gen.fresh st.gen R.Pred in
      emit st (I.Setp (I.CLt, R.S32, p, I.Reg r_i, o_hi));
      finish st
        (Ptx.Prog.Br { pred = p; negate = false; if_true = l_body; if_false = l_exit; reconv = l_exit });
      start st l_body (w *. trip);
      let falls = lower_stmts st (w *. trip) l.body in
      if falls then begin
        emit st (I.I2 (I.IAdd, r_i, I.Reg r_i, I.Imm_i step));
        finish st (Ptx.Prog.Jump l_hdr)
      end;
      start st l_exit w;
      lower_stmts st w rest)

(* ------------------------------------------------------------------ *)
(* Kernel                                                              *)
(* ------------------------------------------------------------------ *)

(* Lower a KIR kernel to unoptimized PTX, also returning the table of
   memory-access sites in emission order.  The (label, index) keys are
   only valid against the *unoptimized* program returned here — the
   PTX optimizer may move or delete instructions. *)
let lower_with_sites (k : kernel) : Ptx.Prog.t * site list =
  Typecheck.check k;
  let tenv = Typecheck.env_of_kernel k in
  let st =
    {
      gen = R.Gen.create ();
      tenv;
      regs = Hashtbl.create 32;
      arrays = Hashtbl.create 8;
      label_counter = 0;
      cur_label = "ENTRY";
      cur_weight = 1.0;
      cur_body = [];
      done_blocks = [];
      sites = [];
      next_sid = 0;
    }
  in
  (* Array bases: parameters resolve at launch; shared/local arrays get
     a static layout. *)
  List.iter
    (fun (a : array_param) ->
      Hashtbl.replace st.arrays a.aname (a.aspace, I.Par a.aname))
    k.array_params;
  let smem_words =
    List.fold_left
      (fun off (name, words) ->
        Hashtbl.replace st.arrays name (I.Shared, I.Imm_i (off * 4));
        off + words)
      0 k.shared_decls
  in
  let lmem_words =
    List.fold_left
      (fun off (name, words) ->
        Hashtbl.replace st.arrays name (I.Local, I.Imm_i (off * 4));
        off + words)
      0 k.local_decls
  in
  let falls = lower_stmts st 1.0 k.body in
  if falls then finish st Ptx.Prog.Ret;
  let params =
    List.map (fun (name, ty) ->
        Ptx.Prog.{ pname = name; pty = (match ty with F32 -> PF32 | S32 -> PS32 | Bool -> PS32) })
      k.scalar_params
    @ List.map
        (fun (a : array_param) -> Ptx.Prog.{ pname = a.aname; pty = PBuf a.aspace })
        k.array_params
  in
  let prog =
    Ptx.Prog.validate
      (Ptx.Prog.make ~name:k.kname ~params ~smem_words ~lmem_words (List.rev st.done_blocks))
  in
  (prog, List.rev st.sites)

let lower (k : kernel) : Ptx.Prog.t = fst (lower_with_sites k)
