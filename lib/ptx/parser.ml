(* Recursive-descent parser for the textual PTX-like syntax.

   Exact inverse of [Pp.kernel]; the round-trip
   [parse (print k) = k] is property-tested in the test suite. *)

open Instr

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type state = { toks : Lexer.token array; mutable pos : int }

let peek st = st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok what =
  let t = next st in
  if t <> tok then fail "expected %s, got %s" what (Lexer.token_to_string t)

let ident st =
  match next st with
  | Lexer.IDENT s -> s
  | t -> fail "expected identifier, got %s" (Lexer.token_to_string t)

let int_lit st =
  match next st with
  | Lexer.INT i -> i
  | t -> fail "expected integer, got %s" (Lexer.token_to_string t)

let reg st =
  match next st with
  | Lexer.REG r -> r
  | t -> fail "expected register, got %s" (Lexer.token_to_string t)

let operand st : operand =
  match next st with
  | Lexer.REG r -> Reg r
  | Lexer.INT i -> Imm_i i
  | Lexer.FLOAT f -> Imm_f f
  | Lexer.SPECIAL s -> Spec s
  | Lexer.PARAM p -> Par p
  | t -> fail "expected operand, got %s" (Lexer.token_to_string t)

let address st : addr =
  expect st Lexer.LBRACKET "'['";
  let base = operand st in
  match next st with
  | Lexer.RBRACKET -> { base; offset = 0 }
  | Lexer.PLUS ->
    let off = int_lit st in
    expect st Lexer.RBRACKET "']'";
    { base; offset = off }
  | Lexer.INT i when i < 0 ->
    (* [%r1-4]: the lexer absorbs the sign into the literal. *)
    expect st Lexer.RBRACKET "']'";
    { base; offset = i }
  | t -> fail "expected ']' or offset, got %s" (Lexer.token_to_string t)

let space_of_string = function
  | "global" -> Global
  | "shared" -> Shared
  | "const" -> Const
  | "local" -> Local
  | s -> fail "unknown memory space %S" s

let ty_of_string = function
  | "f32" -> Reg.F32
  | "s32" -> Reg.S32
  | "pred" -> Reg.Pred
  | s -> fail "unknown type suffix %S" s

let fop2_of_string = function
  | "add" -> Some FAdd
  | "sub" -> Some FSub
  | "mul" -> Some FMul
  | "div" -> Some FDiv
  | "min" -> Some FMin
  | "max" -> Some FMax
  | _ -> None

let fop1_of_string = function
  | "neg" -> Some FNeg
  | "abs" -> Some FAbs
  | "sqrt" -> Some FSqrt
  | "rsqrt" -> Some FRsqrt
  | "rcp" -> Some FRcp
  | "sin" -> Some FSin
  | "cos" -> Some FCos
  | "ex2" -> Some FEx2
  | "lg2" -> Some FLg2
  | _ -> None

let iop2_of_string = function
  | "add" -> Some IAdd
  | "sub" -> Some ISub
  | "mul" -> Some IMul
  | "div" -> Some IDiv
  | "rem" -> Some IRem
  | "min" -> Some IMin
  | "max" -> Some IMax
  | "and" -> Some IAnd
  | "or" -> Some IOr
  | "xor" -> Some IXor
  | "shl" -> Some IShl
  | "shr" -> Some IShr
  | _ -> None

let cmp_of_string = function
  | "eq" -> CEq
  | "ne" -> CNe
  | "lt" -> CLt
  | "le" -> CLe
  | "gt" -> CGt
  | "ge" -> CGe
  | s -> fail "unknown comparison %S" s

let pop2_of_string = function
  | "and" -> PAnd
  | "or" -> POr
  | "xor" -> PXor
  | s -> fail "unknown predicate op %S" s

(* Parse one instruction given its (dotted) mnemonic. *)
let instr_of_mnemonic st (mn : string) : Instr.t =
  let parts = String.split_on_char '.' mn in
  let d2 st =
    let d = reg st in
    expect st Lexer.COMMA "','";
    let a = operand st in
    (d, a)
  in
  let d3 st =
    let d, a = d2 st in
    expect st Lexer.COMMA "','";
    let b = operand st in
    (d, a, b)
  in
  let d4 st =
    let d, a, b = d3 st in
    expect st Lexer.COMMA "','";
    let c = operand st in
    (d, a, b, c)
  in
  let i =
    match parts with
    | [ "bar"; "sync" ] -> Bar
    | [ "mov"; _ty ] ->
      let d, a = d2 st in
      Mov (d, a)
    | [ "mad"; "f32" ] ->
      let d, a, b, c = d4 st in
      Fmad (d, a, b, c)
    | [ "mad"; "s32" ] ->
      let d, a, b, c = d4 st in
      Imad (d, a, b, c)
    | [ "cvt"; "s32"; "f32" ] ->
      let d, a = d2 st in
      Cvt_f2i (d, a)
    | [ "cvt"; "f32"; "s32" ] ->
      let d, a = d2 st in
      Cvt_i2f (d, a)
    | [ "setp"; c; ty ] ->
      let cmp = cmp_of_string c in
      let ty = ty_of_string ty in
      let d, a, b = d3 st in
      Setp (cmp, ty, d, a, b)
    | [ "selp"; _ty ] ->
      let d, a, b, p = d4 st in
      Selp (d, a, b, p)
    | [ "not"; "pred" ] ->
      let d, a = d2 st in
      Pnot (d, a)
    | [ op; "pred" ] ->
      let d, a, b = d3 st in
      P2 (pop2_of_string op, d, a, b)
    | [ "ld"; sp; ty ] ->
      let space = space_of_string sp in
      let rty = ty_of_string ty in
      let d = reg st in
      if Reg.ty d <> rty then fail "ld: destination %s does not match .%s" (Reg.to_string d) ty;
      expect st Lexer.COMMA "','";
      let a = address st in
      Ld (space, d, a)
    | [ "st"; sp; _ty ] ->
      let space = space_of_string sp in
      let a = address st in
      expect st Lexer.COMMA "','";
      let v = operand st in
      St (space, a, v)
    | [ op; "f32" ] -> (
      match (fop1_of_string op, fop2_of_string op) with
      | Some o, None ->
        let d, a = d2 st in
        F1 (o, d, a)
      | _, Some o ->
        (* Both [neg]/[abs] are unary-only; binary names win otherwise. *)
        let d, a = d2 st in
        if peek st = Lexer.COMMA then begin
          advance st;
          let b = operand st in
          F2 (o, d, a, b)
        end
        else F1 ((match fop1_of_string op with Some u -> u | None -> fail "bad f32 op %s" op), d, a)
      | None, None -> fail "unknown f32 op %S" op)
    | [ op; "s32" ] -> (
      match iop2_of_string op with
      | Some o ->
        let d, a, b = d3 st in
        I2 (o, d, a, b)
      | None -> fail "unknown s32 op %S" op)
    | _ -> fail "unknown mnemonic %S" mn
  in
  expect st Lexer.SEMI "';'";
  i

(* Parse one terminator. *)
let terminator st : Prog.term =
  match next st with
  | Lexer.IDENT "jump" ->
    let l = ident st in
    expect st Lexer.SEMI "';'";
    Prog.Jump l
  | Lexer.IDENT "ret" ->
    expect st Lexer.SEMI "';'";
    Prog.Ret
  | Lexer.AT ->
    let negate = peek st = Lexer.BANG in
    if negate then advance st;
    let pred = reg st in
    (match ident st with "bra" -> () | s -> fail "expected 'bra', got %S" s);
    let if_true = ident st in
    (match ident st with "else" -> () | s -> fail "expected 'else', got %S" s);
    let if_false = ident st in
    (match ident st with "join" -> () | s -> fail "expected 'join', got %S" s);
    let reconv = ident st in
    expect st Lexer.SEMI "';'";
    Prog.Br { pred; negate; if_true; if_false; reconv }
  | t -> fail "expected terminator, got %s" (Lexer.token_to_string t)

let weight st : float =
  match next st with
  | Lexer.INT i -> float_of_int i
  | Lexer.FLOAT f -> f
  | t -> fail "expected weight, got %s" (Lexer.token_to_string t)

let ptype_of_directive = function
  | "f32" -> Prog.PF32
  | "s32" -> Prog.PS32
  | "gbuf" -> Prog.PBuf Global
  | "sbuf" -> Prog.PBuf Shared
  | "cbuf" -> Prog.PBuf Const
  | "lbuf" -> Prog.PBuf Local
  | s -> fail "unknown parameter type .%s" s

(* A block is a label, a weight directive, instructions, then a
   terminator.  Terminators start with [jump], [ret] or [@]. *)
let block st : Prog.block =
  let label = ident st in
  expect st Lexer.COLON "':'";
  let w =
    match peek st with
    | Lexer.DIRECTIVE "weight" ->
      advance st;
      weight st
    | _ -> 1.0
  in
  let body = ref [] in
  let rec loop () =
    match peek st with
    | Lexer.IDENT ("jump" | "ret") | Lexer.AT ->
      let t = terminator st in
      Prog.{ label; weight = w; body = List.rev !body; term = t }
    | Lexer.IDENT mn ->
      advance st;
      body := instr_of_mnemonic st mn :: !body;
      loop ()
    | t -> fail "in block %s: expected instruction, got %s" label (Lexer.token_to_string t)
  in
  loop ()

let kernel st : Prog.t =
  expect st (Lexer.DIRECTIVE "kernel") ".kernel";
  let name = ident st in
  expect st Lexer.LPAREN "'('";
  let params = ref [] in
  (if peek st = Lexer.RPAREN then advance st
   else
     let rec loop () =
       expect st (Lexer.DIRECTIVE "param") ".param";
       let pty =
         match next st with
         | Lexer.DIRECTIVE d -> ptype_of_directive d
         | t -> fail "expected parameter type, got %s" (Lexer.token_to_string t)
       in
       let pname = ident st in
       params := Prog.{ pname; pty } :: !params;
       match next st with
       | Lexer.COMMA -> loop ()
       | Lexer.RPAREN -> ()
       | t -> fail "expected ',' or ')', got %s" (Lexer.token_to_string t)
     in
     loop ());
  expect st (Lexer.DIRECTIVE "smem") ".smem";
  let smem_words = int_lit st in
  expect st (Lexer.DIRECTIVE "lmem") ".lmem";
  let lmem_words = int_lit st in
  expect st Lexer.LBRACE "'{'";
  let blocks = ref [] in
  while peek st <> Lexer.RBRACE do
    blocks := block st :: !blocks
  done;
  advance st;
  (* A kernel that parses but names an unknown block or parameter (or
     has no blocks) is still malformed input: report it as this
     parser's [Error], like every other rejection. *)
  try
    Prog.validate
      (Prog.make ~name ~params:(List.rev !params) ~smem_words ~lmem_words (List.rev !blocks))
  with Invalid_argument msg -> raise (Error msg)

let kernel_of_string (src : string) : Prog.t =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0 } in
  let k = kernel st in
  (match peek st with
  | Lexer.EOF -> ()
  | t -> fail "trailing input: %s" (Lexer.token_to_string t));
  k
