(* Kernel verification between pipeline stages.

   [Prog.validate] raises on the first structural error; this module
   instead *collects* violations, and adds the semantic checks a pass
   manager wants after every transformation:

   - structure: blocks exist, labels are unique, every terminator and
     reconvergence target names a real block, parameters are unique and
     every [Par] operand is declared;
   - def-before-use: a forward must-defined dataflow over the CFG (meet
     is intersection over predecessors, the entry starts empty); any
     register read before every path defines it is a violation.  The
     lowered code is SSA-ish — mutable KIR variables become a single
     register reassigned in place — so this catches the classic broken
     pass that renames a definition and strands its uses;
   - barrier placement: [Bar] must not execute in a divergent region.
     A branch is divergent only when its predicate is *tid-tainted*
     (computed transitively from the [%tid.*] specials); for such a
     branch, every block reachable from either target without passing
     the reconvergence point is divergent, and a barrier there would
     deadlock threads that took the other side.  Uniform branches (loop
     trip counts, block-level guards) may contain barriers freely.

   The taint analysis is flow-insensitive over registers and does not
   track taint through memory, so it can miss divergence laundered
   through shared memory; it never flags a uniform branch. *)

type violation = { where : string; what : string }

let violation where fmt = Printf.ksprintf (fun what -> { where; what }) fmt
let to_string v = Printf.sprintf "[%s] %s" v.where v.what
let pp fmt v = Format.pp_print_string fmt (to_string v)
let report vs = String.concat "; " (List.map to_string vs)

(* The structural rules of [Prog.violations], every violation reported. *)
let structural (k : Prog.t) : violation list =
  List.map (fun (where, what) -> { where; what }) (Prog.violations k)

(* ------------------------------------------------------------------ *)
(* Def-before-use: forward must-defined dataflow                       *)
(* ------------------------------------------------------------------ *)

let def_before_use (cfg : Cfg.t) : violation list =
  let n = Cfg.num_blocks cfg in
  let width = Regbits.width cfg.Cfg.blocks in
  let defs =
    Array.init n (fun bi ->
        let s = Regbits.create width in
        List.iter
          (fun i -> match Instr.def i with Some d -> Regbits.add s d | None -> ())
          (Cfg.block cfg bi).body;
        s)
  in
  (* in(entry) = empty; in(b) = ∩ over preds p of (in(p) ∪ defs(p)).
     Non-entry blocks start at ⊤ so loop back-edges do not erase
     definitions from the preheader.  Unreachable blocks keep ⊤: dead
     code is not this check's business. *)
  let inb = Array.init n (fun bi -> if bi = 0 then Regbits.create width else Regbits.full width) in
  let preds = Cfg.preds cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = 1 to n - 1 do
      match preds.(bi) with
      | [] -> ()
      | ps ->
        if Regbits.meet_into ~into:inb.(bi) (List.map (fun q -> (inb.(q), defs.(q))) ps) then
          changed := true
    done
  done;
  let out = ref [] in
  for bi = 0 to n - 1 do
    let b = Cfg.block cfg bi in
    let defined = Regbits.copy inb.(bi) in
    List.iter
      (fun i ->
        Instr.iter_uses
          (fun r ->
            if not (Regbits.mem defined r) then
              out := violation b.label "use of undefined register %s" (Reg.to_string r) :: !out)
          i;
        match Instr.def i with Some d -> Regbits.add defined d | None -> ())
      b.body;
    List.iter
      (fun r ->
        if not (Regbits.mem defined r) then
          out := violation b.label "branch predicate %s undefined" (Reg.to_string r) :: !out)
      (Prog.term_uses b.term)
  done;
  List.sort_uniq compare (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Barrier placement under SIMT divergence                             *)
(* ------------------------------------------------------------------ *)

(* Registers whose value can differ between threads of a block:
   transitive closure from the [%tid.*] specials.  Loads propagate the
   taint of their address (the loaded value varies when the address
   does). *)
let tid_tainted (cfg : Cfg.t) : Regbits.t =
  let tainted = Regbits.create (Regbits.width cfg.Cfg.blocks) in
  let op_tainted = function
    | Instr.Reg r -> Regbits.mem tainted r
    | Instr.Spec (Instr.Tid_x | Instr.Tid_y | Instr.Tid_z) -> true
    | _ -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (b : Prog.block) ->
        List.iter
          (fun i ->
            match Instr.def i with
            | Some d when not (Regbits.mem tainted d) ->
              if List.exists op_tainted (Instr.operands i) then begin
                Regbits.add tainted d;
                changed := true
              end
            | _ -> ())
          b.body)
      cfg.Cfg.blocks
  done;
  tainted

let barrier_placement (cfg : Cfg.t) : violation list =
  let tainted = tid_tainted cfg in
  let out = ref [] in
  Array.iter
    (fun (b : Prog.block) ->
      match b.term with
      | Prog.Br { pred; if_true; if_false; reconv; _ } when Regbits.mem tainted pred ->
        let stop = Cfg.index cfg reconv in
        let visited = Array.make (Cfg.num_blocks cfg) false in
        let rec dfs bi =
          if bi <> stop && not visited.(bi) then begin
            visited.(bi) <- true;
            let blk = Cfg.block cfg bi in
            if List.exists Instr.is_barrier blk.body then
              out :=
                violation blk.label
                  "barrier inside divergent region of thread-dependent branch at %S" b.label
                :: !out;
            List.iter dfs (Cfg.succs cfg).(bi)
          end
        in
        dfs (Cfg.index cfg if_true);
        dfs (Cfg.index cfg if_false)
      | _ -> ())
    cfg.Cfg.blocks;
  List.sort_uniq compare (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Structural violations gate the rest: the dataflow checks need a
   well-formed CFG to run at all. *)
let check (k : Prog.t) : (unit, violation list) result =
  match structural k with
  | _ :: _ as vs -> Error vs
  | [] -> (
    let cfg = Cfg.of_kernel k in
    match def_before_use cfg @ barrier_placement cfg with
    | [] -> Ok ()
    | vs -> Error vs)

exception Invalid of string * violation list

let () =
  Printexc.register_printer (function
    | Invalid (stage, vs) ->
      Some (Printf.sprintf "Ptx.Verify.Invalid(%s: %s)" stage (report vs))
    | _ -> None)

let check_exn ~stage (k : Prog.t) : unit =
  match check k with Ok () -> () | Error vs -> raise (Invalid (stage, vs))
