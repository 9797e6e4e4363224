(* IEEE binary32 semantics on top of OCaml's binary64 floats.

   Every kernel-visible arithmetic result is rounded through binary32 so
   that simulated GPU outputs are bit-comparable with a binary32 CPU
   reference implementation.  Rounding uses the round-trip through
   [Int32.bits_of_float], which performs round-to-nearest-even exactly as
   a hardware f32 unit would for values in range. *)

type t = float

(* The [@inline] annotations keep callers' floats unboxed: without
   inlining, the (non-flambda) compiler boxes every float crossing the
   call.  The round-trip itself stays two calls into the runtime
   ([Int32.bits_of_float] and back; unboxed and non-allocating, but
   calls).  [Gpu.Sim] rounds through a float32 Bigarray cell instead,
   two inline conversion instructions; this module is the reference
   its tests compare against. *)
let[@inline] round (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] add a b = round (a +. b)
let[@inline] sub a b = round (a -. b)
let[@inline] mul a b = round (a *. b)
let[@inline] div a b = round (a /. b)

(* The G80 multiply-add is not fused: it rounds the product before the
   addition, matching [mul] followed by [add]. *)
let[@inline] mad a b c = add (mul a b) c

let[@inline] neg a = -.a
let abs = Float.abs
let[@inline] min a b = if a < b || Float.is_nan b then a else b
let[@inline] max a b = if a > b || Float.is_nan b then a else b
let[@inline] sqrt x = round (Float.sqrt x)
let[@inline] rsqrt x = round (1.0 /. Float.sqrt x)
let[@inline] rcp x = round (1.0 /. x)
let[@inline] sin x = round (Float.sin x)
let[@inline] cos x = round (Float.cos x)
let exp x = round (Float.exp x)
let log x = round (Float.log x)

let[@inline] of_int i = round (float_of_int i)
let to_int (x : float) : int = int_of_float x

let of_bits (b : int32) : float = Int32.float_of_bits b
let to_bits (x : float) : int32 = Int32.bits_of_float x

let equal_bits a b = Int32.equal (to_bits a) (to_bits b)

(* Relative comparison used by application-level validation: simulated
   kernels and CPU references may legally reassociate reductions. *)
let close ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.abs b)
