(* KIR: the kernel intermediate representation.

   A small structured, imperative, CUDA-shaped language: the form in
   which application kernels are generated and on which the paper's
   optimizations (tiling variants, loop unrolling, prefetching,
   proactive register spilling, invariant hoisting) are implemented as
   real program transformations.  Lowering ([Lower]) compiles KIR to
   the PTX-like ISA. *)

type ty = F32 | S32 | Bool

(* A memory space is the ISA's, so an array's space passes unchanged
   to the lowering, the simulator and the static analyzer. *)
type space = Ptx.Instr.space = Global | Shared | Const | Local

type spec = TidX | TidY | BidX | BidY | BdimX | BdimY | GdimX | GdimY

type bin =
  (* arithmetic, overloaded on F32/S32 by operand type *)
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  (* integer-only bit operations *)
  | And
  | Or
  | Xor
  | Shl
  | Shr
  (* comparisons, any arithmetic type -> Bool *)
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  (* boolean *)
  | LAnd
  | LOr

type un =
  | Neg
  | Abs
  | Sqrt
  | Rsqrt
  | Rcp
  | Sin
  | Cos
  | Not
  | ToF  (* s32 -> f32 *)
  | ToI  (* f32 -> s32, truncating *)

type expr =
  | Int of int
  | Flt of float
  | Bool of bool
  | Var of string
  | Param of string  (* scalar kernel parameter *)
  | Special of spec
  | Bin of bin * expr * expr
  | Un of un * expr
  | Ld of string * expr  (* array name, element (word) index *)
  | Select of expr * expr * expr  (* cond ? a : b, both sides evaluated *)

type stmt =
  | Let of string * ty * expr  (* immutable binding *)
  | Mut of string * ty * expr  (* mutable declaration *)
  | Assign of string * expr
  | Store of string * expr * expr  (* array, element index, value *)
  | For of loop
  | If of expr * stmt list * stmt list
  | Sync  (* __syncthreads *)
  | Return  (* per-thread early exit *)

and loop = {
  var : string;
  lo : expr;
  hi : expr;  (* exclusive bound *)
  step : expr;  (* must be a positive constant for lowering *)
  trip : int option;  (* annotation when the trip count is not static *)
  body : stmt list;
}

(* Arrays passed to the kernel (global or constant memory). *)
type array_param = { aname : string; aspace : space }

type kernel = {
  kname : string;
  scalar_params : (string * ty) list;
  array_params : array_param list;
  shared_decls : (string * int) list;  (* name, words per block *)
  local_decls : (string * int) list;  (* name, words per thread *)
  body : stmt list;
}

(* ------------------------------------------------------------------ *)
(* Convenience constructors for kernel generators                      *)
(* ------------------------------------------------------------------ *)

let ( +: ) a b = Bin (Add, a, b)
let ( -: ) a b = Bin (Sub, a, b)
let ( *: ) a b = Bin (Mul, a, b)
let ( /: ) a b = Bin (Div, a, b)
let ( %: ) a b = Bin (Rem, a, b)
let ( <: ) a b = Bin (Lt, a, b)
let ( <=: ) a b = Bin (Le, a, b)
let ( >=: ) a b = Bin (Ge, a, b)
let ( =: ) a b = Bin (Eq, a, b)
let v x = Var x
let i k = Int k
let f x = Flt x
let tid_x = Special TidX
let tid_y = Special TidY
let bid_x = Special BidX
let bid_y = Special BidY
let bdim_x = Special BdimX
let bdim_y = Special BdimY

(* A [for] loop with static integer bounds (the common case in
   generated kernels; the trip count is then derivable). *)
let for_ var lo hi ?(step = 1) ?trip body =
  For { var; lo; hi; step = Int step; trip; body }

(* ------------------------------------------------------------------ *)
(* Static trip counts                                                  *)
(* ------------------------------------------------------------------ *)

(* Trip count of a loop: from the annotation if present, otherwise
   derived when bounds and step are integer literals. *)
let static_trip (l : loop) : int option =
  match l.trip with
  | Some t -> Some t
  | None -> (
    match (l.lo, l.hi, l.step) with
    | Int lo, Int hi, Int step when step > 0 -> Some (max 0 (Util.Stats.cdiv (hi - lo) step))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec map_expr (fn : expr -> expr) (e : expr) : expr =
  let e =
    match e with
    | Int _ | Flt _ | Bool _ | Var _ | Param _ | Special _ -> e
    | Bin (o, a, b) -> Bin (o, map_expr fn a, map_expr fn b)
    | Un (o, a) -> Un (o, map_expr fn a)
    | Ld (a, idx) -> Ld (a, map_expr fn idx)
    | Select (c, a, b) -> Select (map_expr fn c, map_expr fn a, map_expr fn b)
  in
  fn e

let rec map_stmt_exprs (fn : expr -> expr) (s : stmt) : stmt =
  match s with
  | Let (x, ty, e) -> Let (x, ty, map_expr fn e)
  | Mut (x, ty, e) -> Mut (x, ty, map_expr fn e)
  | Assign (x, e) -> Assign (x, map_expr fn e)
  | Store (a, idx, e) -> Store (a, map_expr fn idx, map_expr fn e)
  | For l ->
    For
      {
        l with
        lo = map_expr fn l.lo;
        hi = map_expr fn l.hi;
        step = map_expr fn l.step;
        body = List.map (map_stmt_exprs fn) l.body;
      }
  | If (c, t, e) ->
    If (map_expr fn c, List.map (map_stmt_exprs fn) t, List.map (map_stmt_exprs fn) e)
  | Sync | Return -> s

(* Substitute variable [x] by expression [by] (capture is the caller's
   responsibility: generated kernels never shadow). *)
let subst_var (x : string) (by : expr) (ss : stmt list) : stmt list =
  let fn = function Var y when String.equal y x -> by | e -> e in
  List.map (map_stmt_exprs fn) ss

let rec free_vars_expr (e : expr) (acc : string list) : string list =
  match e with
  | Var x -> x :: acc
  | Int _ | Flt _ | Bool _ | Param _ | Special _ -> acc
  | Bin (_, a, b) -> free_vars_expr a (free_vars_expr b acc)
  | Un (_, a) -> free_vars_expr a acc
  | Ld (_, idx) -> free_vars_expr idx acc
  | Select (c, a, b) -> free_vars_expr c (free_vars_expr a (free_vars_expr b acc))

(* Does an expression contain a load? (Loads are not safely hoistable
   across barriers.) *)
let rec has_load = function
  | Ld _ -> true
  | Int _ | Flt _ | Bool _ | Var _ | Param _ | Special _ -> false
  | Bin (_, a, b) -> has_load a || has_load b
  | Un (_, a) -> has_load a
  | Select (c, a, b) -> has_load c || has_load a || has_load b

(* Variables assigned (mutated) anywhere in a statement list. *)
let rec assigned_vars (ss : stmt list) (acc : string list) : string list =
  List.fold_left
    (fun acc s ->
      match s with
      | Assign (x, _) -> x :: acc
      | For l -> l.var :: assigned_vars l.body acc
      | If (_, t, e) -> assigned_vars t (assigned_vars e acc)
      | Let _ | Mut _ | Store _ | Sync | Return -> acc)
    acc ss

(* Names bound (declared) in a statement list, including loop vars. *)
let rec bound_vars (ss : stmt list) (acc : string list) : string list =
  List.fold_left
    (fun acc s ->
      match s with
      | Let (x, _, _) | Mut (x, _, _) -> x :: acc
      | For l -> l.var :: bound_vars l.body acc
      | If (_, t, e) -> bound_vars t (bound_vars e acc)
      | Assign _ | Store _ | Sync | Return -> acc)
    acc ss

(* Rename every binder in [ss] (Lets, Muts, loop variables) by applying
   [suffix], consistently updating uses.  Used by unrolling to keep
   names unique across replicated bodies. *)
let rename_binders (suffix : string) (ss : stmt list) : stmt list =
  let bound = bound_vars ss [] in
  let renamed x = if List.mem x bound then x ^ suffix else x in
  let fix_expr = map_expr (function Var x -> Var (renamed x) | e -> e) in
  let rec fix_stmt = function
    | Let (x, ty, e) -> Let (renamed x, ty, fix_expr e)
    | Mut (x, ty, e) -> Mut (renamed x, ty, fix_expr e)
    | Assign (x, e) -> Assign (renamed x, fix_expr e)
    | Store (a, idx, e) -> Store (a, fix_expr idx, fix_expr e)
    | For l ->
      For
        {
          var = renamed l.var;
          lo = fix_expr l.lo;
          hi = fix_expr l.hi;
          step = fix_expr l.step;
          trip = l.trip;
          body = List.map fix_stmt l.body;
        }
    | If (c, t, e) -> If (fix_expr c, List.map fix_stmt t, List.map fix_stmt e)
    | (Sync | Return) as s -> s
  in
  List.map fix_stmt ss
