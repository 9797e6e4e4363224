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
   bits too): the convergence test of the optimization fixpoint
   ([Opt.fixpoint]).  Structural [=] is false on any kernel carrying a
   NaN immediate, so such a kernel would never be seen to converge.
   Block lengths are compared first: most rounds remove an instruction
   somewhere, and that test rejects them without comparing
   instructions. *)
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

(* The structural rules every kernel keeps, as its violations in kernel
   order: blocks exist, labels are unique, every terminator and
   reconvergence target names a real block, parameters are unique and
   every [Par] operand is declared.  Each violation is (where, what):
   a block label, or "kernel" for the kernel as a whole, and the broken
   rule.  [validate] raises the first; [Verify.structural] reports them
   all. *)
let violations t : (string * string) list =
  let out = ref [] in
  let add where what = out := (where, what) :: !out in
  if t.blocks = [] then add "kernel" "kernel has no blocks";
  let labels = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem labels b.label then add b.label "duplicate block label"
      else Hashtbl.replace labels b.label ())
    t.blocks;
  let target b what l =
    if not (Hashtbl.mem labels l) then
      add b.label (Printf.sprintf "%s targets unknown block %S" what l)
  in
  List.iter
    (fun b ->
      match b.term with
      | Jump l -> target b "jump" l
      | Br { if_true; if_false; reconv; _ } ->
        target b "branch (taken)" if_true;
        target b "branch (fall-through)" if_false;
        target b "reconvergence point" reconv
      | Ret -> ())
    t.blocks;
  let params = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem params p.pname then
        add "kernel" (Printf.sprintf "duplicate parameter %S" p.pname)
      else Hashtbl.replace params p.pname ())
    t.params;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          List.iter
            (function
              | Instr.Par name when not (Hashtbl.mem params name) ->
                add b.label (Printf.sprintf "references undeclared parameter %S" name)
              | _ -> ())
            (Instr.operands i))
        b.body)
    t.blocks;
  List.rev !out

(* [t] itself when it keeps every structural rule; otherwise raises
   [Invalid_argument] naming the first violation. *)
let validate t =
  match violations t with
  | [] -> t
  | (where, what) :: _ -> invalid_arg (Printf.sprintf "Prog.validate: [%s] %s" where what)

(* Number of static instructions (bodies + terminators). *)
let static_size t =
  List.fold_left (fun acc b -> acc + List.length b.body + 1) 0 t.blocks

(* Register-file sizes per class: one more than the highest register
   index mentioned anywhere, so simulators can lay registers out as
   flat per-class arrays (decode helper).  A fold over the kernel with
   three counters: every launch computes it. *)
let regfile_sizes t : int * int * int =
  let nf = ref 0 and nr = ref 0 and np = ref 0 in
  let see r =
    let n = Reg.idx r + 1 in
    match Reg.ty r with
    | Reg.F32 -> if n > !nf then nf := n
    | Reg.S32 -> if n > !nr then nr := n
    | Reg.Pred -> if n > !np then np := n
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          (match Instr.def i with Some d -> see d | None -> ());
          Instr.iter_uses see i)
        b.body;
      match b.term with Br { pred; _ } -> see pred | Jump _ | Ret -> ())
    t.blocks;
  (!nf, !nr, !np)
