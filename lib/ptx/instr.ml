(* The PTX-like instruction set.

   A deliberately small RISC-style virtual ISA covering the instruction
   classes that matter to the paper's metrics and to the G80 timing
   model: single-precision ALU/MAD ops, SFU transcendentals, integer
   ALU/MAD, predicate ops, typed memory accesses over the four CUDA
   spaces, and the block-wide barrier.  Control flow lives in block
   terminators ([Prog.term]), not here. *)

(* Per-thread special values, read-only (CUDA's threadIdx / blockIdx /
   blockDim / gridDim). *)
type special =
  | Tid_x
  | Tid_y
  | Tid_z
  | Ntid_x
  | Ntid_y
  | Ntid_z
  | Ctaid_x
  | Ctaid_y
  | Nctaid_x
  | Nctaid_y

type operand =
  | Reg of Reg.t
  | Imm_f of float
  | Imm_i of int
  | Spec of special
  | Par of string  (* kernel parameter, by name; reads hit the constant cache *)

(* Binary f32 ops executed on the SP MAD units. *)
type fop2 = FAdd | FSub | FMul | FDiv | FMin | FMax

(* Unary f32 ops.  [FSqrt]..[FLg2] execute on the SFUs. *)
type fop1 = FNeg | FAbs | FSqrt | FRsqrt | FRcp | FSin | FCos | FEx2 | FLg2

type iop2 = IAdd | ISub | IMul | IDiv | IRem | IMin | IMax | IAnd | IOr | IXor | IShl | IShr

type cmp = CEq | CNe | CLt | CLe | CGt | CGe

type pop2 = PAnd | POr | PXor

(* The CUDA memory spaces visible to a kernel. *)
type space = Global | Shared | Const | Local

(* A memory operand: [base] evaluates to a byte address, [offset] is a
   constant byte displacement ([reg+imm] addressing — the addressing
   mode that makes unrolled loops cheap, cf. paper section 2.3). *)
type addr = { base : operand; offset : int }

type t =
  | Mov of Reg.t * operand
  | F2 of fop2 * Reg.t * operand * operand
  | F1 of fop1 * Reg.t * operand
  | Fmad of Reg.t * operand * operand * operand  (* d = a*b + c, unfused *)
  | I2 of iop2 * Reg.t * operand * operand
  | Imad of Reg.t * operand * operand * operand
  | Cvt_f2i of Reg.t * operand  (* truncating conversion *)
  | Cvt_i2f of Reg.t * operand
  | Setp of cmp * Reg.ty * Reg.t * operand * operand
  | Selp of Reg.t * operand * operand * operand  (* d = p ? a : b *)
  | Pnot of Reg.t * operand
  | P2 of pop2 * Reg.t * operand * operand
  | Ld of space * Reg.t * addr
  | St of space * addr * operand
  | Bar  (* block-wide barrier: __syncthreads *)

(* ------------------------------------------------------------------ *)
(* Structural queries                                                  *)
(* ------------------------------------------------------------------ *)

let def = function
  | Mov (d, _)
  | F2 (_, d, _, _)
  | F1 (_, d, _)
  | Fmad (d, _, _, _)
  | I2 (_, d, _, _)
  | Imad (d, _, _, _)
  | Cvt_f2i (d, _)
  | Cvt_i2f (d, _)
  | Setp (_, _, d, _, _)
  | Selp (d, _, _, _)
  | Pnot (d, _)
  | P2 (_, d, _, _)
  | Ld (_, d, _) -> Some d
  | St _ | Bar -> None

let reg_of_operand = function Reg r -> Some r | Imm_f _ | Imm_i _ | Spec _ | Par _ -> None

let operands = function
  | Mov (_, a) | F1 (_, _, a) | Cvt_f2i (_, a) | Cvt_i2f (_, a) | Pnot (_, a) -> [ a ]
  | F2 (_, _, a, b) | I2 (_, _, a, b) | Setp (_, _, _, a, b) | P2 (_, _, a, b) -> [ a; b ]
  | Fmad (_, a, b, c) | Imad (_, a, b, c) | Selp (_, a, b, c) -> [ a; b; c ]
  | Ld (_, _, { base; _ }) -> [ base ]
  | St (_, { base; _ }, v) -> [ base; v ]
  | Bar -> []

let uses i = List.filter_map reg_of_operand (operands i)

(* [List.iter f (uses i)] without building the lists: the dataflow
   passes call this once per instruction per round, and the simulator
   once per instruction per launch.  [use_op] is top-level, so a call
   allocates no closure. *)
let use_op (f : Reg.t -> unit) = function Reg r -> f r | Imm_f _ | Imm_i _ | Spec _ | Par _ -> ()

let iter_uses (f : Reg.t -> unit) (i : t) : unit =
  match i with
  | Mov (_, a) | F1 (_, _, a) | Cvt_f2i (_, a) | Cvt_i2f (_, a) | Pnot (_, a) -> use_op f a
  | F2 (_, _, a, b) | I2 (_, _, a, b) | Setp (_, _, _, a, b) | P2 (_, _, a, b) ->
    use_op f a;
    use_op f b
  | Fmad (_, a, b, c) | Imad (_, a, b, c) | Selp (_, a, b, c) ->
    use_op f a;
    use_op f b;
    use_op f c
  | Ld (_, _, { base; _ }) -> use_op f base
  | St (_, { base; _ }, v) ->
    use_op f base;
    use_op f v
  | Bar -> ()

(* Rewrite every register occurrence (defs and uses) through [f]. *)
let map_regs (f : Reg.t -> Reg.t) (i : t) : t =
  let op = function Reg r -> Reg (f r) | o -> o in
  let ad a = { a with base = op a.base } in
  match i with
  | Mov (d, a) -> Mov (f d, op a)
  | F2 (o, d, a, b) -> F2 (o, f d, op a, op b)
  | F1 (o, d, a) -> F1 (o, f d, op a)
  | Fmad (d, a, b, c) -> Fmad (f d, op a, op b, op c)
  | I2 (o, d, a, b) -> I2 (o, f d, op a, op b)
  | Imad (d, a, b, c) -> Imad (f d, op a, op b, op c)
  | Cvt_f2i (d, a) -> Cvt_f2i (f d, op a)
  | Cvt_i2f (d, a) -> Cvt_i2f (f d, op a)
  | Setp (c, ty, d, a, b) -> Setp (c, ty, f d, op a, op b)
  | Selp (d, a, b, c) -> Selp (f d, op a, op b, op c)
  | Pnot (d, a) -> Pnot (f d, op a)
  | P2 (o, d, a, b) -> P2 (o, f d, op a, op b)
  | Ld (s, d, a) -> Ld (s, f d, ad a)
  | St (s, a, v) -> St (s, ad a, op v)
  | Bar -> Bar

(* Rewrite only the use occurrences through [f] (an operand map). *)
let map_uses (f : operand -> operand) (i : t) : t =
  let ad a = match f a.base with b -> { a with base = b } in
  match i with
  | Mov (d, a) -> Mov (d, f a)
  | F2 (o, d, a, b) -> F2 (o, d, f a, f b)
  | F1 (o, d, a) -> F1 (o, d, f a)
  | Fmad (d, a, b, c) -> Fmad (d, f a, f b, f c)
  | I2 (o, d, a, b) -> I2 (o, d, f a, f b)
  | Imad (d, a, b, c) -> Imad (d, f a, f b, f c)
  | Cvt_f2i (d, a) -> Cvt_f2i (d, f a)
  | Cvt_i2f (d, a) -> Cvt_i2f (d, f a)
  | Setp (c, ty, d, a, b) -> Setp (c, ty, d, f a, f b)
  | Selp (d, a, b, c) -> Selp (d, f a, f b, f c)
  | Pnot (d, a) -> Pnot (d, f a)
  | P2 (o, d, a, b) -> P2 (o, d, f a, f b)
  | Ld (s, d, a) -> Ld (s, d, ad a)
  | St (s, a, v) -> St (s, ad a, f v)
  | Bar -> Bar

(* Bitwise structural equality.  Float immediates compare by bits:
   OCaml's polymorphic (=) identifies 0.0 with -0.0 and fails on NaN,
   so it would merge [x * 0.0] with [x * -0.0] and never see a kernel
   holding a NaN immediate equal to itself.  Everything else is
   float-free and compares structurally. *)
let equal_operand (a : operand) (b : operand) : bool =
  match (a, b) with
  | Imm_f x, Imm_f y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Imm_f _, _ | _, Imm_f _ -> false
  | _ -> a = b

let equal (a : t) (b : t) : bool =
  (* Replacing every operand with a fixed token leaves opcode, type
     tags, destination and addressing offset — all float-free — for the
     structural compare; the operands then compare bitwise. *)
  let strip i = map_uses (fun _ -> Imm_i 0) i in
  strip a = strip b && List.for_all2 equal_operand (operands a) (operands b)

(* ------------------------------------------------------------------ *)
(* Classification (drives both the timing model and the metrics)       *)
(* ------------------------------------------------------------------ *)

let is_sfu_op = function
  | FSqrt | FRsqrt | FRcp | FSin | FCos | FEx2 | FLg2 -> true
  | FNeg | FAbs -> false

let is_sfu = function F1 (o, _, _) -> is_sfu_op o | _ -> false

(* Long-latency memory operations: reads that go off-chip (global
   memory and per-thread local/spill memory, Table 1). *)
let is_long_latency_mem = function
  | Ld ((Global | Local), _, _) -> true
  | Ld ((Shared | Const), _, _) -> false
  | St _ -> false
  | _ -> false

(* Instructions that delimit scheduling regions for Eq. 2 of the paper:
   barriers and long-latency loads.  (Stores retire asynchronously on
   the G80 and do not block the issuing warp.) *)
let is_blocking i = match i with Bar -> true | _ -> is_long_latency_mem i

let is_barrier = function Bar -> true | _ -> false

let is_mem = function Ld _ | St _ -> true | _ -> false

(* Bytes of off-chip traffic generated per *thread* by one execution of
   this instruction (all our accesses are 32-bit). *)
let global_bytes = function
  | Ld (Global, _, _) | St (Global, _, _) -> 4
  | Ld (Local, _, _) | St (Local, _, _) -> 4 (* local memory is off-chip *)
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Operator semantics (decode helpers)                                 *)
(* ------------------------------------------------------------------ *)

(* The evaluation function of each ALU operator, resolved once.  The
   simulator's pre-decode stage selects these at kernel-launch time so
   its per-lane inner loop performs no operator dispatch; the KIR
   interpreter and constant folders may share them. *)

let fop2_fn : fop2 -> float -> float -> float = function
  | FAdd -> Util.Float32.add
  | FSub -> Util.Float32.sub
  | FMul -> Util.Float32.mul
  | FDiv -> Util.Float32.div
  | FMin -> Util.Float32.min
  | FMax -> Util.Float32.max

let fop1_fn : fop1 -> float -> float = function
  | FNeg -> Util.Float32.neg
  | FAbs -> Util.Float32.abs
  | FSqrt -> Util.Float32.sqrt
  | FRsqrt -> Util.Float32.rsqrt
  | FRcp -> Util.Float32.rcp
  | FSin -> Util.Float32.sin
  | FCos -> Util.Float32.cos
  | FEx2 -> fun x -> Util.Float32.round (Float.pow 2.0 x)
  | FLg2 -> fun x -> Util.Float32.round (Float.log x /. Float.log 2.0)

let iop2_fn : iop2 -> int -> int -> int = function
  | IAdd -> ( + )
  | ISub -> ( - )
  | IMul -> ( * )
  | IDiv -> fun a b -> if b = 0 then 0 else a / b
  | IRem -> fun a b -> if b = 0 then 0 else a mod b
  | IMin -> min
  | IMax -> max
  | IAnd -> ( land )
  | IOr -> ( lor )
  | IXor -> ( lxor )
  | IShl -> ( lsl )
  | IShr -> ( asr )

(* Comparison against the three-way result of [compare]. *)
let cmp_fn : cmp -> int -> bool = function
  | CEq -> fun c -> c = 0
  | CNe -> fun c -> c <> 0
  | CLt -> fun c -> c < 0
  | CLe -> fun c -> c <= 0
  | CGt -> fun c -> c > 0
  | CGe -> fun c -> c >= 0

let pop2_fn : pop2 -> bool -> bool -> bool = function
  | PAnd -> ( && )
  | POr -> ( || )
  | PXor -> ( <> )

let special_to_string = function
  | Tid_x -> "%tid.x"
  | Tid_y -> "%tid.y"
  | Tid_z -> "%tid.z"
  | Ntid_x -> "%ntid.x"
  | Ntid_y -> "%ntid.y"
  | Ntid_z -> "%ntid.z"
  | Ctaid_x -> "%ctaid.x"
  | Ctaid_y -> "%ctaid.y"
  | Nctaid_x -> "%nctaid.x"
  | Nctaid_y -> "%nctaid.y"

let all_specials =
  [ Tid_x; Tid_y; Tid_z; Ntid_x; Ntid_y; Ntid_z; Ctaid_x; Ctaid_y; Nctaid_x; Nctaid_y ]
