(* Linear-scan register allocation.

   This is the repository's analogue of `ptxas` register assignment:
   its output — the number of physical 32-bit registers a thread needs —
   is exactly the quantity the paper extracts with `nvcc -cubin` and
   feeds into the occupancy computation (B_SM).  Optimizations that
   lengthen live ranges (unrolling, prefetching) therefore raise this
   count and can push a configuration over an occupancy cliff, which is
   the paper's central non-linearity.

   Intervals are computed over a linearization of the CFG in reverse
   postorder.  A register live across a loop back-edge gets an interval
   covering the whole loop (we extend intervals to cover every block in
   which the register is live).  Predicates are allocated in the same
   32-bit namespace — conservative, but consistent with how ptxas
   reported register counts on this hardware generation. *)

type interval = { reg : Reg.t; start : int; finish : int }

type result = {
  reg_count : int;  (* physical 32-bit registers per thread *)
  assignment : int Reg.Map.t;  (* virtual register -> physical slot *)
  intervals : interval list;
}

(* Build live intervals from per-position liveness.  Interval bounds
   live in arrays indexed by register bit ([Regbits.bit]); [-1] marks a
   register not yet seen. *)
let intervals_of (cfg : Cfg.t) (live : Liveness.t) : interval list =
  let order = Cfg.reverse_postorder cfg in
  let start = Array.make live.width (-1) and finish = Array.make live.width (-1) in
  let touch r pos =
    let b = Regbits.bit r in
    if start.(b) < 0 then begin
      start.(b) <- pos;
      finish.(b) <- pos
    end
    else begin
      if pos < start.(b) then start.(b) <- pos;
      if pos > finish.(b) then finish.(b) <- pos
    end
  in
  let pos = ref 0 in
  List.iter
    (fun bi ->
      let b = Cfg.block cfg bi in
      (* Registers live into the block are live at its first position;
         live out of the block at its last. *)
      let first = !pos in
      Regbits.iter (fun r -> touch r first) live.live_in.(bi);
      List.iter
        (fun i ->
          (match Instr.def i with Some d -> touch d !pos | None -> ());
          Instr.iter_uses (fun r -> touch r !pos) i;
          incr pos)
        b.body;
      List.iter (fun r -> touch r !pos) (Prog.term_uses b.term);
      incr pos;
      let last = !pos - 1 in
      Regbits.iter (fun r -> touch r last) live.live_out.(bi))
    order;
  let ivs = ref [] in
  Array.iteri
    (fun b s ->
      if s >= 0 then ivs := { reg = Regbits.reg_of_bit b; start = s; finish = finish.(b) } :: !ivs)
    start;
  List.sort (fun a b -> compare (a.start, a.finish, a.reg) (b.start, b.finish, b.reg)) !ivs

(* Standard linear scan with an unbounded physical register file: the
   G80's architectural per-thread maximum (128) vastly exceeds anything
   our kernels produce, and over-use is caught downstream by the
   occupancy check (B_SM = 0 makes the configuration invalid, the
   paper's "invalid executable"). *)
let scan (ivs : interval list) : int Reg.Map.t * int =
  let free = ref [] in
  let next = ref 0 in
  let active = ref [] in
  (* active: (finish, phys) sorted ascending by finish, so the expired
     intervals are a prefix *)
  let assignment = ref Reg.Map.empty in
  let rec expire now =
    match !active with
    | (f, p) :: rest when f < now ->
      free := p :: !free;
      active := rest;
      expire now
    | _ -> ()
  in
  List.iter
    (fun iv ->
      expire iv.start;
      let phys =
        match !free with
        | p :: rest ->
          free := rest;
          p
        | [] ->
          let p = !next in
          incr next;
          p
      in
      assignment := Reg.Map.add iv.reg phys !assignment;
      active := List.merge (fun (a, _) (b, _) -> compare a b) !active [ (iv.finish, phys) ])
    ivs;
  (!assignment, !next)

let allocate (k : Prog.t) : result =
  let cfg = Cfg.of_kernel k in
  let live = Liveness.compute cfg in
  let intervals = intervals_of cfg live in
  let assignment, reg_count = scan intervals in
  { reg_count; assignment; intervals }

(* Rewrite a kernel so every virtual register is replaced by its
   physical slot (keeping its class).  Not required for execution — the
   simulator runs on virtual registers — but useful for inspecting
   allocator behaviour and tested for semantic preservation. *)
let apply (k : Prog.t) (r : result) : Prog.t =
  let remap reg =
    match Reg.Map.find_opt reg r.assignment with
    | Some phys -> Reg.make (Reg.ty reg) phys
    | None -> reg (* dead register never assigned *)
  in
  {
    k with
    blocks =
      List.map
        (fun (b : Prog.block) ->
          {
            b with
            body = List.map (Instr.map_regs remap) b.body;
            term = Prog.map_term_regs remap b.term;
          })
        k.blocks;
  }

(* Sanity check used by tests: no two distinct virtual registers with
   overlapping intervals may share a physical slot. *)
let check_no_conflicts (r : result) : bool =
  let ivs = Array.of_list r.intervals in
  let n = Array.length ivs in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = ivs.(i) and b = ivs.(j) in
      if not (Reg.equal a.reg b.reg) then begin
        let overlap = a.start <= b.finish && b.start <= a.finish in
        let same_phys =
          match (Reg.Map.find_opt a.reg r.assignment, Reg.Map.find_opt b.reg r.assignment) with
          | Some x, Some y -> x = y
          | _ -> false
        in
        if overlap && same_phys then ok := false
      end
    done
  done;
  !ok
