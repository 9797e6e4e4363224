(* Kernels of the PTX-like ISA: parameter lists, memory footprints and a
   list of basic blocks with explicit terminators.

   Each block carries a [weight]: the expected number of executions per
   thread, derived from loop trip counts during lowering.  This is the
   machine-checked analogue of the paper's manual loop-trip annotation
   of PTX dumps, and is what [Count] consumes to estimate dynamic
   instruction counts statically. *)

(* Kernel parameter kinds.  A buffer parameter carries a byte address
   into the corresponding memory space at launch time. *)
type ptype =
  | PF32  (* scalar f32 *)
  | PS32  (* scalar s32 *)
  | PBuf of Instr.space  (* base address of an array in [space] *)

type param = { pname : string; pty : ptype }

type term =
  | Jump of string
  | Br of {
      pred : Reg.t;
      negate : bool;  (* branch taken when predicate is [not negate] *)
      if_true : string;
      if_false : string;
      reconv : string;  (* immediate post-dominator: SIMT reconvergence point *)
    }
  | Ret

type block = { label : string; weight : float; body : Instr.t list; term : term }

type t = {
  name : string;
  params : param list;
  smem_words : int;  (* statically declared shared memory, 32-bit words per block *)
  lmem_words : int;  (* per-thread local (spill) memory, 32-bit words *)
  blocks : block list;
}

let block ?(weight = 1.0) label body term = { label; weight; body; term }

let make ~name ~params ~smem_words ~lmem_words blocks =
  { name; params; smem_words; lmem_words; blocks }

(* ------------------------------------------------------------------ *)

let term_successors = function
  | Jump l -> [ l ]
  | Br { if_true; if_false; _ } -> [ if_true; if_false ]
  | Ret -> []

let term_uses = function Br { pred; _ } -> [ pred ] | Jump _ | Ret -> []

let map_term_regs f = function
  | Br b -> Br { b with pred = f b.pred }
  | (Jump _ | Ret) as t -> t

let find_block t label =
  match List.find_opt (fun b -> String.equal b.label label) t.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Prog.find_block: no block %S in %s" label t.name)

let block_index t =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace tbl b.label i) t.blocks;
  tbl

let param_names t = List.map (fun p -> p.pname) t.params

let find_param t name =
  match List.find_opt (fun p -> String.equal p.pname name) t.params with
  | Some p -> Some p.pty
  | None -> None

(* All registers mentioned anywhere in the kernel. *)
let all_regs t =
  let set = ref Reg.Set.empty in
  let add r = set := Reg.Set.add r !set in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          (match Instr.def i with Some d -> add d | None -> ());
          List.iter add (Instr.uses i))
        b.body;
      List.iter add (term_uses b.term))
    t.blocks;
  !set

(* Bitwise program equality ([Instr.equal]; block weights by their
   bits too): the convergence test of the optimization fixpoint, in
   [Opt.run] and in the pass manager alike.  Structural [=] is false on
   any kernel carrying a NaN immediate, so such a kernel would never
   be seen to converge.  Block lengths are compared first: most rounds
   remove an instruction somewhere, and that test rejects them without
   comparing instructions. *)
let equal (a : t) (b : t) : bool =
  let same_length x y = List.compare_lengths x.body y.body = 0 in
  let block x y =
    String.equal x.label y.label
    && Int64.equal (Int64.bits_of_float x.weight) (Int64.bits_of_float y.weight)
    && x.term = y.term
    && List.equal Instr.equal x.body y.body
  in
  String.equal a.name b.name && a.params = b.params && a.smem_words = b.smem_words
  && a.lmem_words = b.lmem_words
  && List.equal same_length a.blocks b.blocks
  && List.equal block a.blocks b.blocks

(* Structural sanity checks: every control-flow target exists, labels
   are unique, the entry block is first, and reconvergence labels are
   real blocks.  Raises [Invalid_argument] describing the first
   violation. *)
let validate t =
  if t.blocks = [] then invalid_arg "Prog.validate: kernel has no blocks";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem seen b.label then
        invalid_arg (Printf.sprintf "Prog.validate: duplicate label %S" b.label);
      Hashtbl.replace seen b.label ())
    t.blocks;
  let check_label where l =
    if not (Hashtbl.mem seen l) then
      invalid_arg (Printf.sprintf "Prog.validate: %s refers to unknown block %S" where l)
  in
  List.iter
    (fun b ->
      List.iter (check_label (Printf.sprintf "terminator of %S" b.label)) (term_successors b.term);
      match b.term with
      | Br { reconv; _ } -> check_label (Printf.sprintf "reconvergence of %S" b.label) reconv
      | Jump _ | Ret -> ())
    t.blocks;
  (* Parameter names must be unique. *)
  let pseen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem pseen p.pname then
        invalid_arg (Printf.sprintf "Prog.validate: duplicate parameter %S" p.pname);
      Hashtbl.replace pseen p.pname ())
    t.params;
  (* Every [Par] operand must name a declared parameter. *)
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          List.iter
            (function
              | Instr.Par name ->
                if not (Hashtbl.mem pseen name) then
                  invalid_arg
                    (Printf.sprintf "Prog.validate: use of undeclared parameter %S" name)
              | _ -> ())
            (Instr.operands i))
        b.body)
    t.blocks;
  t

(* Number of static instructions (bodies + terminators). *)
let static_size t =
  List.fold_left (fun acc b -> acc + List.length b.body + 1) 0 t.blocks

(* Register-file sizes per class: one more than the highest register
   index mentioned anywhere, so simulators can lay registers out as
   flat per-class arrays (decode helper). *)
let regfile_sizes t : int * int * int =
  let nf = ref 0 and nr = ref 0 and np = ref 0 in
  Reg.Set.iter
    (fun r ->
      match Reg.ty r with
      | Reg.F32 -> nf := max !nf (Reg.idx r + 1)
      | Reg.S32 -> nr := max !nr (Reg.idx r + 1)
      | Reg.Pred -> np := max !np (Reg.idx r + 1))
    (all_regs t);
  (!nf, !nr, !np)
