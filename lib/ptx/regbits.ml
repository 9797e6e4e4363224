(* Dense register sets over one kernel.

   Register [r] is bit [idx r * 3 + class r] (class codes as
   [Reg.ty_code]: f32 0, s32 1, pred 2), so a kernel whose highest
   register index is [m] needs [3 * (m + 1)] bits whatever its mix of
   classes.  A set is a mutable array of [Sys.int_size]-bit words sized
   for one kernel ([width]); set operations are word loops, membership
   is one shift.  This is the representation of every dataflow fact in
   the PTX layer: liveness, must-defined registers and the verifier's
   tid taint.  Only this module reads the words: the dataflow solvers'
   word loops (the liveness transfer, the must-defined meet) live
   here. *)

type t = int array

let word_bits = Sys.int_size
let bit (r : Reg.t) : int = (Reg.idx r * 3) + Reg.ty_code (Reg.ty r)

let reg_of_bit (b : int) : Reg.t =
  Reg.make (match b mod 3 with 0 -> Reg.F32 | 1 -> Reg.S32 | _ -> Reg.Pred) (b / 3)

(* Bits needed for every register of [blocks]. *)
let width (blocks : Prog.block array) : int =
  let m = ref (-1) in
  let see r = if Reg.idx r > !m then m := Reg.idx r in
  Array.iter
    (fun (b : Prog.block) ->
      List.iter
        (fun i ->
          (match Instr.def i with Some d -> see d | None -> ());
          Instr.iter_uses see i)
        b.body;
      List.iter see (Prog.term_uses b.term))
    blocks;
  3 * (!m + 1)

(* Words of a [width]-bit set. *)
let words (width : int) : int = (width + word_bits - 1) / word_bits

let create (width : int) : t = Array.make (words width) 0

(* Every bit of a [width]-bit universe (and the spare bits of the last
   word, which no register of the kernel can name). *)
let full (width : int) : t = Array.make (words width) (-1)

let copy : t -> t = Array.copy

(* Registers outside the universe are simply absent. *)
let mem (s : t) (r : Reg.t) : bool =
  let b = bit r in
  let w = b / word_bits in
  w < Array.length s && s.(w) land (1 lsl (b mod word_bits)) <> 0

let add (s : t) (r : Reg.t) : unit =
  let b = bit r in
  let w = b / word_bits in
  s.(w) <- s.(w) lor (1 lsl (b mod word_bits))

let remove (s : t) (r : Reg.t) : unit =
  let b = bit r in
  let w = b / word_bits in
  s.(w) <- s.(w) land lnot (1 lsl (b mod word_bits))

let clear (s : t) : unit = Array.fill s 0 (Array.length s) 0

(* [into := into ∪ s]. *)
let union_into ~(into : t) (s : t) : unit =
  for w = 0 to Array.length s - 1 do
    into.(w) <- into.(w) lor s.(w)
  done

(* [into := use ∪ (out \ def)], the backward liveness transfer of one
   block; whether [into] changed. *)
let transfer ~(into : t) ~(use : t) ~(def : t) (out : t) : bool =
  let changed = ref false in
  for w = 0 to Array.length into - 1 do
    let x = use.(w) lor (out.(w) land lnot def.(w)) in
    if x <> into.(w) then begin
      into.(w) <- x;
      changed := true
    end
  done;
  !changed

(* [into := ⋂ (a ∪ b)] over the pairs of a non-empty [sets], the
   must-defined meet over a block's predecessors; whether [into]
   changed.  [into] may itself appear in [sets] (a self-loop): each
   word is read before it is written. *)
let meet_into ~(into : t) (sets : (t * t) list) : bool =
  let changed = ref false in
  for w = 0 to Array.length into - 1 do
    let x = List.fold_left (fun acc (a, b) -> acc land (a.(w) lor b.(w))) (-1) sets in
    if x <> into.(w) then begin
      into.(w) <- x;
      changed := true
    end
  done;
  !changed

(* Members in bit order (index-major): cheap, for order-free consumers. *)
let iter (f : Reg.t -> unit) (s : t) : unit =
  Array.iteri
    (fun w x ->
      if x <> 0 then
        for j = 0 to word_bits - 1 do
          if x land (1 lsl j) <> 0 then f (reg_of_bit ((w * word_bits) + j))
        done)
    s

(* Members in [Reg.compare] order, as a [Reg.Set] would list them. *)
let elements (s : t) : Reg.t list =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc) s;
  List.sort Reg.compare !acc
