(* Recursive-descent parser and elaborator for minicuda.

   minicuda is a small CUDA-C-shaped concrete syntax that elaborates
   directly into KIR; it exists so kernels can be written and read as
   text (see examples/kernels/*.mcu).  Grammar sketch:

     kernel mm(global float A, const float T, int n, float alpha) {
       shared float As[256];
       float sum = 0.0f;
       #pragma unroll 4
       for (int k = 0; k < 16; k++) { sum += As[k] * alpha; }
       __syncthreads();
       if (threadIdx_x < n) { A[threadIdx_x] = sum; }
     }

   Built-in identifiers: threadIdx_x/y, blockIdx_x/y, blockDim_x/y,
   gridDim_x/y.  Built-in functions: sqrtf, rsqrtf, rcpf, sinf, cosf,
   fabsf, minf/maxf (float), mini/maxi (int), float(int), int(float).
   `#pragma unroll [n]` (n omitted = complete) and `#pragma trip n`
   attach to the following for-loop.  Declarations are mutable;
   mixed-type arithmetic requires explicit float()/int() casts (the KIR
   typechecker enforces this after elaboration). *)

open Kir.Ast

exception Error of { line : int; msg : string }

let err line fmt = Printf.ksprintf (fun msg -> raise (Error { line; msg })) fmt

type state = {
  toks : (Token.t * int) array;
  mutable pos : int;
  (* collected kernel-level declarations *)
  mutable scalars : (string * ty) list;
  mutable arrays : array_param list;
  mutable shared : (string * int) list;
  mutable locals : (string * int) list;
  mutable unrolls : (string * int) list;  (* loop var -> factor *)
}

(* The lexer ends every stream with EOF, and reading past it answers
   EOF again: a truncated source then fails with a typed [Error] at the
   expecting rule, never with an out-of-bounds read. *)
let current st = st.toks.(min st.pos (Array.length st.toks - 1))
let peek st = fst (current st)
let line st = snd (current st)
let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok =
  let t = next st in
  if t <> tok then
    err (line st) "expected %s, got %s" (Token.to_string tok) (Token.to_string t)

let ident st =
  match next st with
  | Token.IDENT s -> s
  | t -> err (line st) "expected identifier, got %s" (Token.to_string t)

let int_lit st =
  match next st with
  | Token.INT_LIT i -> i
  | t -> err (line st) "expected integer literal, got %s" (Token.to_string t)

let specials =
  [
    ("threadIdx_x", TidX);
    ("threadIdx_y", TidY);
    ("blockIdx_x", BidX);
    ("blockIdx_y", BidY);
    ("blockDim_x", BdimX);
    ("blockDim_y", BdimY);
    ("gridDim_x", GdimX);
    ("gridDim_y", GdimY);
  ]

let builtin1 =
  [
    ("sqrtf", Sqrt);
    ("rsqrtf", Rsqrt);
    ("rcpf", Rcp);
    ("sinf", Sin);
    ("cosf", Cos);
    ("fabsf", Abs);
    ("absi", Abs);
    ("float", ToF);
    ("int", ToI);
  ]

let builtin2 = [ ("minf", Min); ("maxf", Max); ("mini", Min); ("maxi", Max) ]

(* Is [name] an array (parameter or shared/local declaration)? *)
let is_array st name =
  List.exists (fun (a : array_param) -> String.equal a.aname name) st.arrays
  || List.mem_assoc name st.shared
  || List.mem_assoc name st.locals

let is_scalar_param st name = List.mem_assoc name st.scalars

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

let rec expr st : expr = ternary st

and ternary st =
  let c = logic_or st in
  if peek st = Token.QUESTION then begin
    advance st;
    let a = expr st in
    expect st Token.COLON;
    let b = ternary st in
    Select (c, a, b)
  end
  else c

and logic_or st =
  let rec go acc =
    if peek st = Token.OROR then begin
      advance st;
      go (Bin (LOr, acc, logic_and st))
    end
    else acc
  in
  go (logic_and st)

and logic_and st =
  let rec go acc =
    if peek st = Token.ANDAND then begin
      advance st;
      go (Bin (LAnd, acc, equality st))
    end
    else acc
  in
  go (equality st)

and equality st =
  let rec go acc =
    match peek st with
    | Token.EQEQ ->
      advance st;
      go (Bin (Eq, acc, relational st))
    | Token.NEQ ->
      advance st;
      go (Bin (Ne, acc, relational st))
    | _ -> acc
  in
  go (relational st)

and relational st =
  let rec go acc =
    match peek st with
    | Token.LT ->
      advance st;
      go (Bin (Lt, acc, additive st))
    | Token.LE ->
      advance st;
      go (Bin (Le, acc, additive st))
    | Token.GT ->
      advance st;
      go (Bin (Gt, acc, additive st))
    | Token.GE ->
      advance st;
      go (Bin (Ge, acc, additive st))
    | _ -> acc
  in
  go (additive st)

and additive st =
  let rec go acc =
    match peek st with
    | Token.PLUS ->
      advance st;
      go (Bin (Add, acc, multiplicative st))
    | Token.MINUS ->
      advance st;
      go (Bin (Sub, acc, multiplicative st))
    | _ -> acc
  in
  go (multiplicative st)

and multiplicative st =
  let rec go acc =
    match peek st with
    | Token.STAR ->
      advance st;
      go (Bin (Mul, acc, unary st))
    | Token.SLASH ->
      advance st;
      go (Bin (Div, acc, unary st))
    | Token.PERCENT ->
      advance st;
      go (Bin (Rem, acc, unary st))
    | _ -> acc
  in
  go (unary st)

and unary st =
  match peek st with
  | Token.MINUS ->
    advance st;
    Un (Neg, unary st)
  | Token.BANG ->
    advance st;
    Un (Not, unary st)
  | _ -> primary st

and primary st =
  match next st with
  | Token.INT_LIT i -> Int i
  | Token.FLOAT_LIT f -> Flt f
  | Token.TRUE -> Bool true
  | Token.FALSE -> Bool false
  | Token.LPAREN ->
    let e = expr st in
    expect st Token.RPAREN;
    e
  | Token.INT ->
    (* int(e) cast *)
    expect st Token.LPAREN;
    let e = expr st in
    expect st Token.RPAREN;
    Un (ToI, e)
  | Token.FLOAT ->
    expect st Token.LPAREN;
    let e = expr st in
    expect st Token.RPAREN;
    Un (ToF, e)
  | Token.IDENT name -> (
    match peek st with
    | Token.LBRACKET ->
      advance st;
      let idx = expr st in
      expect st Token.RBRACKET;
      if not (is_array st name) then err (line st) "%s is not an array" name;
      Ld (name, idx)
    | Token.LPAREN -> (
      advance st;
      match List.assoc_opt name builtin1 with
      | Some op ->
        let a = expr st in
        expect st Token.RPAREN;
        Un (op, a)
      | None -> (
        match List.assoc_opt name builtin2 with
        | Some op ->
          let a = expr st in
          expect st Token.COMMA;
          let b = expr st in
          expect st Token.RPAREN;
          Bin (op, a, b)
        | None -> err (line st) "unknown function %s" name))
    | _ -> (
      match List.assoc_opt name specials with
      | Some s -> Special s
      | None -> if is_scalar_param st name then Param name else Var name))
  | t -> err (line st) "expected expression, got %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let scalar_ty st =
  match next st with
  | Token.FLOAT -> F32
  | Token.INT -> S32
  | Token.BOOL -> Bool
  | t -> err (line st) "expected a type, got %s" (Token.to_string t)

let rec block st : stmt list =
  if peek st = Token.LBRACE then begin
    advance st;
    let rec go acc =
      if peek st = Token.RBRACE then begin
        advance st;
        List.rev acc
      end
      else go (List.rev_append (stmt st) acc)
    in
    go []
  end
  else stmt st

and stmt st : stmt list =
  match peek st with
  | Token.SHARED | Token.LOCAL ->
    let kind = next st in
    expect st Token.FLOAT;
    let name = ident st in
    expect st Token.LBRACKET;
    let size = int_lit st in
    expect st Token.RBRACKET;
    expect st Token.SEMI;
    (match kind with
    | Token.SHARED -> st.shared <- st.shared @ [ (name, size) ]
    | _ -> st.locals <- st.locals @ [ (name, size) ]);
    []
  | Token.FLOAT | Token.INT | Token.BOOL ->
    let ty = scalar_ty st in
    let name = ident st in
    expect st Token.ASSIGN;
    let e = expr st in
    expect st Token.SEMI;
    [ Mut (name, ty, e) ]
  | Token.SYNCTHREADS ->
    advance st;
    expect st Token.LPAREN;
    expect st Token.RPAREN;
    expect st Token.SEMI;
    [ Sync ]
  | Token.RETURN ->
    advance st;
    expect st Token.SEMI;
    [ Return ]
  | Token.IF ->
    advance st;
    expect st Token.LPAREN;
    let c = expr st in
    expect st Token.RPAREN;
    let then_ = block st in
    let else_ =
      if peek st = Token.ELSE then begin
        advance st;
        block st
      end
      else []
    in
    [ If (c, then_, else_) ]
  | Token.UNROLL _ | Token.TRIP _ -> pragma_for st
  | Token.FOR -> for_loop st None None
  | Token.IDENT name -> (
    advance st;
    match next st with
    | Token.ASSIGN ->
      let e = expr st in
      expect st Token.SEMI;
      [ Assign (name, e) ]
    | Token.PLUS_EQ ->
      let e = expr st in
      expect st Token.SEMI;
      [ Assign (name, Bin (Add, Var name, e)) ]
    | Token.LBRACKET -> (
      let idx = expr st in
      expect st Token.RBRACKET;
      match next st with
      | Token.ASSIGN ->
        let e = expr st in
        expect st Token.SEMI;
        [ Store (name, idx, e) ]
      | Token.PLUS_EQ ->
        let e = expr st in
        expect st Token.SEMI;
        [ Store (name, idx, Bin (Add, Ld (name, idx), e)) ]
      | t -> err (line st) "expected = or += after index, got %s" (Token.to_string t))
    | t -> err (line st) "unexpected %s after identifier" (Token.to_string t))
  | t -> err (line st) "expected statement, got %s" (Token.to_string t)

and pragma_for st : stmt list =
  let rec gather unroll trip =
    match peek st with
    | Token.UNROLL n ->
      advance st;
      gather (Some n) trip
    | Token.TRIP n ->
      advance st;
      gather unroll (Some n)
    | Token.FOR -> for_loop st unroll trip
    | t -> err (line st) "pragma must precede a for loop, got %s" (Token.to_string t)
  in
  gather None None

and for_loop st (unroll : int option) (trip : int option) : stmt list =
  expect st Token.FOR;
  expect st Token.LPAREN;
  expect st Token.INT;
  let var = ident st in
  expect st Token.ASSIGN;
  let lo = expr st in
  expect st Token.SEMI;
  let v2 = ident st in
  if v2 <> var then err (line st) "loop condition must test %s" var;
  expect st Token.LT;
  let hi = expr st in
  expect st Token.SEMI;
  let v3 = ident st in
  if v3 <> var then err (line st) "loop update must assign %s" var;
  let step =
    match next st with
    | Token.PLUS_EQ -> int_lit st
    | Token.PLUS -> (
      (* i++ lexes as PLUS PLUS *)
      match next st with
      | Token.PLUS -> 1
      | t -> err (line st) "expected ++ or += in loop update, got %s" (Token.to_string t))
    | Token.ASSIGN ->
      (* i = i + k *)
      let v4 = ident st in
      if v4 <> var then err (line st) "loop update must be %s = %s + k" var var;
      expect st Token.PLUS;
      int_lit st
    | t -> err (line st) "expected loop update, got %s" (Token.to_string t)
  in
  expect st Token.RPAREN;
  let body = block st in
  (match unroll with
  | Some n ->
    if List.mem_assoc var st.unrolls then
      err (line st) "duplicate #pragma unroll for loop variable %s" var;
    st.unrolls <- (var, n) :: st.unrolls
  | None -> ());
  [ For { var; lo; hi; step = Int step; trip; body } ]

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

let param st =
  match next st with
  | Token.GLOBAL ->
    expect st Token.FLOAT;
    let name = ident st in
    st.arrays <- st.arrays @ [ { aname = name; aspace = Global } ]
  | Token.CONST ->
    expect st Token.FLOAT;
    let name = ident st in
    st.arrays <- st.arrays @ [ { aname = name; aspace = Const } ]
  | Token.FLOAT ->
    let name = ident st in
    st.scalars <- st.scalars @ [ (name, F32) ]
  | Token.INT ->
    let name = ident st in
    st.scalars <- st.scalars @ [ (name, S32) ]
  | t -> err (line st) "expected parameter, got %s" (Token.to_string t)

let kernel st : kernel =
  expect st Token.KERNEL;
  let name = ident st in
  st.scalars <- [];
  st.arrays <- [];
  st.shared <- [];
  st.locals <- [];
  st.unrolls <- [];
  expect st Token.LPAREN;
  (if peek st = Token.RPAREN then advance st
   else
     let rec go () =
       param st;
       match next st with
       | Token.COMMA -> go ()
       | Token.RPAREN -> ()
       | t -> err (line st) "expected , or ), got %s" (Token.to_string t)
     in
     go ());
  let body = block st in
  let k =
    {
      kname = name;
      scalar_params = st.scalars;
      array_params = st.arrays;
      shared_decls = st.shared;
      local_decls = st.locals;
      body;
    }
  in
  (* Apply #pragma unroll as real transformations, innermost pragma
     collected last so application order does not matter for distinct
     loop variables. *)
  let k =
    List.fold_left
      (fun k (var, factor) -> Kir.Unroll.apply ~select:(Kir.Unroll.Named var) ~factor k)
      k st.unrolls
  in
  Kir.Typecheck.check k;
  k

(* Parse a whole source file: one or more kernels. *)
let parse (src : string) : kernel list =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; scalars = []; arrays = []; shared = []; locals = []; unrolls = [] } in
  let rec go acc =
    if peek st = Token.EOF then List.rev acc else go (kernel st :: acc)
  in
  go []

let parse_one (src : string) : kernel =
  match parse src with
  | [ k ] -> k
  | ks -> err 0 "expected exactly one kernel, found %d" (List.length ks)

let parse_file (path : string) : kernel list =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse src
