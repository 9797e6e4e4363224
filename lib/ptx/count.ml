(* Static estimation of dynamic execution profile, per thread.

   This reproduces the paper's workflow of section 4: dump PTX, annotate
   loop trip counts, and statically derive

   - [instr]:   dynamic instructions executed per thread (the paper's
                Instr; e.g. 15150 for the unrolled 4k matmul kernel);
   - [regions]: the number of instruction intervals delimited by
                blocking instructions or kernel start/end (769 for the
                same kernel).  Blocking instructions are barriers and
                long-latency (global/texture) loads; *sequences of
                independent long-latency loads count as one unit*.

   Instead of manual annotation, our lowering records each basic
   block's expected executions per thread as [Prog.block.weight], so
   the estimate is a weighted sum over blocks. *)

(* Every field is a float, so OCaml stores the record flat (no boxed
   float per field); keep it that way.  The instruction-class mix
   ([class_order]) is part of it: [alu], [sfu], [mem_global],
   [mem_shared], [mem_const], [barriers] and [branch] are the dynamic
   instructions per thread of each issue class ([class_of]). *)
type profile = {
  instr : float;  (* dynamic instructions per thread (incl. branches, barriers) *)
  regions : float;  (* paper's Regions term (see [effective_events]) *)
  mem_bar_events : float;  (* blocking events from loads + barriers *)
  sfu_events : float;  (* blocking events from SFU instruction runs *)
  sfu : float;  (* dynamic SFU instructions per thread *)
  mem : float;  (* dynamic memory instructions per thread *)
  global_bytes : float;  (* off-chip bytes transferred per thread *)
  barriers : float;  (* dynamic barriers per thread *)
  alu : float;  (* dynamic ALU instructions per thread *)
  mem_global : float;  (* dynamic global/local loads and stores per thread *)
  mem_shared : float;  (* dynamic shared-memory loads and stores per thread *)
  mem_const : float;  (* dynamic constant-memory loads and stores per thread *)
  branch : float;  (* dynamic block terminators per thread *)
}

(* Issue class of one instruction: where it executes and what latency
   table prices it.  Branches are block terminators, never body
   instructions. *)
type iclass = Alu | Sfu | Mem_global | Mem_shared | Mem_const | Barrier | Branch

let class_of (i : Instr.t) : iclass =
  if Instr.is_barrier i then Barrier
  else if Instr.is_sfu i then Sfu
  else
    match i with
    | Instr.Ld ((Instr.Global | Instr.Local), _, _) | Instr.St ((Instr.Global | Instr.Local), _, _)
      -> Mem_global
    | Instr.Ld (Instr.Shared, _, _) | Instr.St (Instr.Shared, _, _) -> Mem_shared
    | Instr.Ld (Instr.Const, _, _) | Instr.St (Instr.Const, _, _) -> Mem_const
    | _ -> Alu

let classes = [ Alu; Sfu; Mem_global; Mem_shared; Mem_const; Barrier; Branch ]

let class_name = function
  | Alu -> "alu"
  | Sfu -> "sfu"
  | Mem_global -> "mem.global"
  | Mem_shared -> "mem.shared"
  | Mem_const -> "mem.const"
  | Barrier -> "barrier"
  | Branch -> "branch"

let class_order = List.map class_name classes

(* A profile's dynamic per-class tally, in [class_order]. *)
let class_tally (p : profile) : float list =
  [ p.alu; p.sfu; p.mem_global; p.mem_shared; p.mem_const; p.barriers; p.branch ]

(* Count blocking events inside one block body, separately for
   memory/barrier events and for SFU-instruction events.

   A "run" of long-latency instructions stays open as long as
   subsequent instructions do not consume any register produced inside
   the run; address arithmetic between loads keeps a run open, a use of
   a produced value (or a barrier) closes it.  This implements the
   paper's "sequences of independent, long-latency loads are considered
   a unit".  SFU instructions are counted with the same run-collapsing
   rule but reported separately: per the paper they only block "when
   longer latency operations are not present", which is decided by the
   metrics layer. *)
let blocking_events_in_body (body : Instr.t list) : int * int =
  let mem_events = ref 0 in
  let sfu_events = ref 0 in
  (* Current run: [None], [Some `Mem], or [Some `Sfu]. *)
  let in_run = ref None in
  let pending = ref Reg.Set.empty in
  let close () =
    in_run := None;
    pending := Reg.Set.empty
  in
  List.iter
    (fun i ->
      let uses_pending = List.exists (fun r -> Reg.Set.mem r !pending) (Instr.uses i) in
      let open_run kind counter =
        if uses_pending || !in_run <> Some kind then begin
          if uses_pending || !in_run <> None then close ();
          incr counter;
          in_run := Some kind
        end;
        match Instr.def i with
        | Some d -> pending := Reg.Set.add d !pending
        | None -> ()
      in
      if Instr.is_barrier i then begin
        close ();
        incr mem_events
      end
      else if Instr.is_long_latency_mem i then open_run `Mem mem_events
      else if Instr.is_sfu i then open_run `Sfu sfu_events
      else if uses_pending then close ())
    body;
  (!mem_events, !sfu_events)

(* The paper's Regions denominator: barriers and long-latency loads
   always delimit regions; SFU runs count only when they are the
   dominant long-latency behaviour of the kernel (CP and MRI-FHD, whose
   inner loops touch no off-chip memory). *)
let effective_events ~mem_bar ~sfu = if sfu > mem_bar then mem_bar +. sfu else mem_bar

let profile_of (k : Prog.t) : profile =
  let instr = ref 0.0 in
  let mem_ev = ref 0.0 in
  let sfu_ev = ref 0.0 in
  let sfu = ref 0.0 in
  let mem = ref 0.0 in
  let bytes = ref 0.0 in
  let barriers = ref 0.0 in
  let alu = ref 0.0 in
  let mem_global = ref 0.0 in
  let mem_shared = ref 0.0 in
  let mem_const = ref 0.0 in
  let branch = ref 0.0 in
  List.iter
    (fun (b : Prog.block) ->
      let w = b.weight in
      (* The terminator is an instruction too (branches execute). *)
      instr := !instr +. (w *. float_of_int (List.length b.body + 1));
      let me, se = blocking_events_in_body b.body in
      mem_ev := !mem_ev +. (w *. float_of_int me);
      sfu_ev := !sfu_ev +. (w *. float_of_int se);
      List.iter
        (fun i ->
          (match class_of i with
          | Alu -> alu := !alu +. w
          | Sfu -> sfu := !sfu +. w
          | Mem_global -> mem_global := !mem_global +. w
          | Mem_shared -> mem_shared := !mem_shared +. w
          | Mem_const -> mem_const := !mem_const +. w
          | Barrier -> barriers := !barriers +. w
          | Branch -> branch := !branch +. w);
          if Instr.is_mem i then mem := !mem +. w;
          bytes := !bytes +. (w *. float_of_int (Instr.global_bytes i)))
        b.body;
      branch := !branch +. w)
    k.blocks;
  {
    instr = !instr;
    regions = effective_events ~mem_bar:!mem_ev ~sfu:!sfu_ev +. 1.0;
    mem_bar_events = !mem_ev;
    sfu_events = !sfu_ev;
    sfu = !sfu;
    mem = !mem;
    global_bytes = !bytes;
    barriers = !barriers;
    alu = !alu;
    mem_global = !mem_global;
    mem_shared = !mem_shared;
    mem_const = !mem_const;
    branch = !branch;
  }

(* Fraction of the dynamic instruction stream that is memory
   operations — the paper's quick bandwidth-limit screen (section 4). *)
let mem_fraction p = if p.instr = 0.0 then 0.0 else p.mem /. p.instr

(* ------------------------------------------------------------------ *)
(* Per-class instruction breakdown (`gpuopt inspect --trace`)           *)
(* ------------------------------------------------------------------ *)

type class_row = {
  class_name : string;
  static_count : int;  (* instructions in the program text *)
  dynamic_count : float;  (* executions per thread, weight-estimated *)
}

(* Static counts come from the program text; the dynamic column is the
   profile's own class tally. *)
let class_breakdown (k : Prog.t) : class_row list =
  let static = Hashtbl.create 8 in
  let bump cls = Hashtbl.replace static cls (1 + Option.value ~default:0 (Hashtbl.find_opt static cls)) in
  List.iter
    (fun (b : Prog.block) ->
      List.iter (fun i -> bump (class_of i)) b.body;
      bump Branch)
    k.blocks;
  List.map2
    (fun cls dynamic_count ->
      {
        class_name = class_name cls;
        static_count = Option.value ~default:0 (Hashtbl.find_opt static cls);
        dynamic_count;
      })
    classes
    (class_tally (profile_of k))
