(* Device memory and the host-side API.

   Plays the role of the CUDA runtime's memory management: the host
   allocates device buffers, copies data in and out, and passes buffer
   base addresses as kernel arguments.  Addresses are byte addresses
   (all accesses are 32-bit and must be 4-byte aligned); storage is a
   word-indexed float array per memory space.  Integer data stored to
   memory round-trips through [float_of_int], which is exact for the
   magnitudes any of our kernels use (< 2^53). *)

type buffer = {
  space : Ptx.Instr.space;
  base : int;  (* byte address *)
  words : int;  (* length in 32-bit words *)
}

(* Constant-bank capacity in bytes (Table 1: 64KB on G80). *)
let const_capacity = 65536

type t = {
  mutable glob : float array;  (* global memory, word-indexed *)
  mutable glob_brk : int;  (* allocation high-water mark, words *)
  cst : float array;  (* constant memory, the whole bank *)
  mutable cst_brk : int;
}

let create ?(global_words = 1 lsl 16) () =
  {
    glob = Array.make global_words 0.0;
    glob_brk = 0;
    cst = Array.make (const_capacity / 4) 0.0;
    cst_brk = 0;
  }

let grow arr needed =
  let n = Array.length arr in
  if needed <= n then arr
  else begin
    let n' = max needed (2 * n) in
    let a' = Array.make n' 0.0 in
    Array.blit arr 0 a' 0 n;
    a'
  end

(* Allocate [words] 32-bit words of global memory; returns the buffer
   whose [base] is passed to kernels as a pointer argument. *)
let alloc t words =
  if words < 0 then invalid_arg "Device.alloc: negative size";
  t.glob <- grow t.glob (t.glob_brk + words);
  let b = { space = Ptx.Instr.Global; base = t.glob_brk * 4; words } in
  t.glob_brk <- t.glob_brk + words;
  b

(* Allocate in the constant bank (capacity enforced; Table 1: 64KB). *)
let alloc_const t words =
  if words < 0 then invalid_arg "Device.alloc_const: negative size";
  if (t.cst_brk + words) * 4 > const_capacity then
    failwith
      (Printf.sprintf "Device.alloc_const: constant memory exhausted (%dKB)"
         (const_capacity / 1024));
  let b = { space = Ptx.Instr.Const; base = t.cst_brk * 4; words } in
  t.cst_brk <- t.cst_brk + words;
  b

(* Deep copy: a private memory image with the same buffer addresses.
   Buffers allocated on the original remain valid on the clone, so a
   launch that must not write the caller's memory runs on a clone: a
   timing launch whose slice keeps global stores ([Sim.run]), or the
   functional replay of a cross-validation. *)
let clone t =
  {
    glob = Array.copy t.glob;
    glob_brk = t.glob_brk;
    cst = Array.copy t.cst;
    cst_brk = t.cst_brk;
  }

let check_bounds (b : buffer) i =
  if i < 0 || i >= b.words then
    invalid_arg (Printf.sprintf "Device: word index %d out of bounds for buffer of %d words" i b.words)

(* Host <-> device copies (cudaMemcpy analogues). *)

let to_device t (b : buffer) (src : float array) =
  if Array.length src > b.words then invalid_arg "Device.to_device: source larger than buffer";
  let arr = match b.space with Ptx.Instr.Const -> t.cst | _ -> t.glob in
  Array.blit src 0 arr (b.base / 4) (Array.length src)

let of_device t (b : buffer) : float array =
  let arr = match b.space with Ptx.Instr.Const -> t.cst | _ -> t.glob in
  Array.sub arr (b.base / 4) b.words

let set t (b : buffer) i v =
  check_bounds b i;
  let arr = match b.space with Ptx.Instr.Const -> t.cst | _ -> t.glob in
  arr.(b.base / 4 + i) <- v

let get t (b : buffer) i =
  check_bounds b i;
  let arr = match b.space with Ptx.Instr.Const -> t.cst | _ -> t.glob in
  arr.(b.base / 4 + i)

let fill t (b : buffer) v =
  let arr = match b.space with Ptx.Instr.Const -> t.cst | _ -> t.glob in
  Array.fill arr (b.base / 4) b.words v

(* Raw word access by byte address, used by the executor.  An access
   outside the memory a kernel may touch is the kernel's fault, not the
   host's: it raises [Trap], which [Sim] re-exports as its own.  A
   kernel may touch global memory up to the allocation high-water mark
   [glob_brk], not the whole backing array, whose tail [create] and
   [grow] leave unallocated. *)

exception Trap of string

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

let read_global t (byte_addr : int) : float =
  let w = byte_addr lsr 2 in
  if w < 0 || w >= t.glob_brk then
    trap "Device.read_global: address %d out of range" byte_addr
  else t.glob.(w)

let write_global t (byte_addr : int) (v : float) : unit =
  let w = byte_addr lsr 2 in
  if w < 0 || w >= t.glob_brk then
    trap "Device.write_global: address %d out of range" byte_addr
  else t.glob.(w) <- v

let read_const t (byte_addr : int) : float =
  let w = byte_addr lsr 2 in
  if w < 0 || w >= Array.length t.cst then
    trap "Device.read_const: address %d out of range" byte_addr
  else t.cst.(w)
