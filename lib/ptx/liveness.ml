(* Classic backward liveness dataflow over the CFG.

   [live_out b] = union of [live_in] of successors;
   [live_in b]  = use(b) ∪ (live_out(b) \ def(b)).

   Facts are dense register bitsets ([Regbits]), one word loop per
   block visit.  Only blocks reachable from the entry are solved;
   unreachable ones keep empty sets.  The one liveness of the PTX
   layer: dead-code elimination, the register allocator (whose counts
   feed the occupancy model, the paper's `-cubin` analogue), the
   peephole pass's clobber gate, the translation validator and the
   dead-store lint all read it. *)

type t = { width : int; live_in : Regbits.t array; live_out : Regbits.t array }

let compute (cfg : Cfg.t) : t =
  let n = Cfg.num_blocks cfg in
  let width = Regbits.width cfg.Cfg.blocks in
  (* Per-block (use, def): [use] holds registers read before any write
     inside the block, [def] registers written. *)
  let use = Array.init n (fun _ -> Regbits.create width) in
  let def = Array.init n (fun _ -> Regbits.create width) in
  for i = 0 to n - 1 do
    let u = use.(i) and d = def.(i) in
    let see r = if not (Regbits.mem d r) then Regbits.add u r in
    let b = Cfg.block cfg i in
    List.iter
      (fun ins ->
        Instr.iter_uses see ins;
        match Instr.def ins with Some r -> Regbits.add d r | None -> ())
      b.body;
    List.iter see (Prog.term_uses b.term)
  done;
  let live_in = Array.init n (fun _ -> Regbits.create width) in
  let live_out = Array.init n (fun _ -> Regbits.create width) in
  (* Iterate to a fixed point in postorder (backward flow converges in
     few passes), revisiting a block only when the live-in of one of
     its successors changed since it was last computed. *)
  let order = List.rev (Cfg.reverse_postorder cfg) in
  let succs = Cfg.succs cfg and preds = Cfg.preds cfg in
  let dirty = Array.make n true in
  let pending = ref true in
  while !pending do
    pending := false;
    List.iter
      (fun i ->
        if dirty.(i) then begin
          dirty.(i) <- false;
          let out = live_out.(i) in
          Regbits.clear out;
          List.iter (fun s -> Regbits.union_into ~into:out live_in.(s)) succs.(i);
          if Regbits.transfer ~into:live_in.(i) ~use:use.(i) ~def:def.(i) out then
            List.iter
              (fun p ->
                dirty.(p) <- true;
                pending := true)
              preds.(i)
        end)
      order
  done;
  { width; live_in; live_out }

(* Walk block [bi] backwards once: [f j instr live] sees the registers
   live *after* instruction [j], for [j] from last to first.  [live] is
   one set updated in place, valid only during the call.  The
   terminator reads its predicate, so that is live after the last body
   instruction. *)
let walk_back (t : t) (cfg : Cfg.t) (bi : int) (f : int -> Instr.t -> Regbits.t -> unit) : unit =
  let b = Cfg.block cfg bi in
  let live = Regbits.copy t.live_out.(bi) in
  List.iter (Regbits.add live) (Prog.term_uses b.term);
  let body = Array.of_list b.body in
  for j = Array.length body - 1 downto 0 do
    let i = body.(j) in
    f j i live;
    (match Instr.def i with Some d -> Regbits.remove live d | None -> ());
    Instr.iter_uses (Regbits.add live) i
  done

(* For each instruction position of block [i], a snapshot of the set
   of registers live *after* that instruction. *)
let live_after_each (t : t) (cfg : Cfg.t) (i : int) : Regbits.t array =
  let after = Array.make (List.length (Cfg.block cfg i).body) (Regbits.create 0) in
  walk_back t cfg i (fun j _ live -> after.(j) <- Regbits.copy live);
  after

(* Dead-store lint: every instruction whose defined register is dead on
   every path out of its position.  DCE would delete these — so on an
   optimized kernel the list is empty, and a nonempty answer on a
   hand-written kernel means wasted issue slots (or a dropped result).
   Memory and barrier effects have no defined register and are never
   reported; a dead [Ld] *is* reported (its load still costs cycles,
   but its result does not flow anywhere). *)
let dead_defs (k : Prog.t) : (string * int * Instr.t) list =
  let cfg = Cfg.of_kernel k in
  let live = compute cfg in
  List.concat
    (List.mapi
       (fun bi (b : Prog.block) ->
         let out = ref [] in
         walk_back live cfg bi (fun j i after ->
             match Instr.def i with
             | Some d when not (Regbits.mem after d) -> out := (b.label, j, i) :: !out
             | _ -> ());
         !out)
       k.blocks)
