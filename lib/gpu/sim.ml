(* Cycle-approximate simulator for the GeForce 8800 SM.

   Models the first-order mechanisms that the paper's optimization
   space exercises (section 2.1/2.2):

   - warps of 32 threads issuing SIMD over 8 SPs (4 cycles per issue);
   - zero-overhead warp interleaving: any ready warp from any resident
     block may issue next; the SM stalls only when no warp is ready;
   - an in-order per-warp scoreboard: an instruction waits until its
     source registers' ready-cycles have passed (register RAW latency
     hides behind other warps or behind independent instructions of the
     same warp — the ILP that unrolling/prefetching create);
   - global memory latency plus a per-SM bandwidth channel with
     half-warp coalescing (contiguous 64B-aligned accesses become one
     transaction; anything else one transaction per active lane);
   - shared-memory bank conflicts (16 banks, conflict degree multiplies
     issue occupancy) and single-ported constant-cache broadcast;
   - barrier semantics parking warps until all live warps of the block
     arrive;
   - block residency limited by occupancy (B_SM), with finished blocks
     replaced from the pending queue.

   [Functional] launches compute real binary32 values against device
   memory, so the same engine validates kernel outputs.  [Timing]
   launches execute only the kernel's timing slice ([timing_slice]):
   the registers and memory spaces whose values can reach a branch or
   an address.  Every other instruction keeps its issue cost, latency
   and scoreboard effect and every memory access its addresses, bounds
   traps, cost and site counters, but computes, reads and writes no
   value; a timing launch never writes the device it is given.  Large
   grids are simulated for a bounded number of blocks on one
   representative SM and extrapolated linearly (the paper observes
   linear scaling in input size).

   Each memory rule is stated once: [half_traffic] (coalescing and
   local-memory traffic) and [serialization] (bank conflicts and
   constant broadcast), which the static analyzer calls too.

   The execution core is compiled, not interpretive: [compile_kernel]
   pre-decodes every instruction into a record of closures with operand
   accessors, write paths and latency classes resolved once per launch,
   and of the offsets of its registers in the warp's one scoreboard
   array, so the per-issue path performs no instruction-set dispatch,
   no operand validation and no allocation.  Every load decodes to one
   form and every store to another, over a description of its space
   ([mspace]: the array behind it, its size, how a lane finds its word,
   its out-of-range error, and its cost charge, [offchip_charge] or
   [onchip_charge]); the full and the timing-only variant differ only
   in whether the lane loop moves each lane's word.

   The scheduler keeps runnable warps in a min-heap of ints keyed by
   their exact earliest-issue cycle (see [wheap]); a linear-scan
   reference scheduler is retained behind [?scheduler] for differential
   testing.  Both produce bit-identical statistics. *)

open Ptx

(* Every cycle, count and index here is an int.  These shadow the
   polymorphic [Stdlib.max] and [min], an out-of-line call into the
   runtime's generic compare, with inline int forms; a float use is a
   type error. *)
let[@inline] max (a : int) (b : int) : int = if a >= b then a else b
let[@inline] min (a : int) (b : int) : int = if a <= b then a else b

exception Launch_error of string

let launch_error fmt = Printf.ksprintf (fun s -> raise (Launch_error s)) fmt

(* The launched kernel trapped: a deadlock at a barrier, or a global or
   constant access out of range ([Device.read_global] and friends). *)
exception Trap = Device.Trap

(* Watchdog: a launch whose generated code never terminates (a broken
   unroll bound, a mutated loop) would otherwise spin the simulator
   forever.  [run ?budget] caps the warp instructions one launch may
   issue; exceeding the cap aborts the launch with [Watchdog] instead
   of hanging the sweep.  The budget is a limit on simulator work, not
   a timing input: a launch that stays under it produces bit-identical
   statistics whatever the cap. *)
exception Watchdog of { issued : int; budget : int }

let () =
  Printexc.register_printer (function
    | Watchdog { issued; budget } ->
      Some
        (Printf.sprintf "Gpu.Sim.Watchdog(issued %d warp instructions, budget %d)" issued budget)
    | _ -> None)

(* Default budget = warps simulated x this per-warp cap, which leaves
   real kernels orders of magnitude of headroom: the heaviest app
   kernel in the repo issues ~2e4 instructions per warp. *)
let default_watchdog_per_warp = 1_000_000

type arg = I of int | F of float | Buf of Device.buffer

type launch = {
  kernel : Prog.t;
  grid : int * int;  (* blocks in x, y *)
  block : int * int;  (* threads in x, y *)
  args : (string * arg) list;
}

type mode =
  | Functional  (* execute every block; no occupancy requirement *)
  | Timing of { max_blocks : int }  (* cap simulated blocks on the measured SM *)

(* Warp scheduler selection.  [Heap] is the production scheduler: a
   min-heap of runnable warps keyed by (earliest issue cycle, admission
   order).  [Scan] is the pre-heap reference — a linear scan over the
   resident warps per issue — kept for differential testing; both are
   bit-identical in every statistic. *)
type scheduler = Heap | Scan

(* Dynamic counters for one memory instruction (Ld/St), identified by
   its (block label, body index) in the launched program.  [sc_tx] and
   [sc_bytes] accumulate for off-chip spaces (global/local); [sc_replays]
   accumulates serialization beyond the first issue slot for on-chip
   spaces (shared bank conflicts, constant-cache non-broadcast). *)
type site_counter = {
  sc_label : string;
  sc_index : int;
  sc_space : Instr.space;
  mutable sc_execs : int;  (* warp executions with a non-empty mask *)
  mutable sc_tx : int;
  mutable sc_bytes : int;
  mutable sc_replays : int;
}

type stats = {
  cycles : float;  (* extrapolated kernel cycles *)
  time_s : float;  (* cycles / arch clock *)
  total_blocks : int;
  blocks_simulated : int;
  warp_instrs : int;  (* issued in the simulated portion *)
  gmem_transactions : int;
  gmem_bytes : int;
  bank_conflict_extra : int;  (* extra issue cycles lost to conflicts *)
  occupancy : Arch.occupancy;
  regs_per_thread : int;
  site_counters : site_counter list;  (* per Ld/St, in program order *)
}

(* ------------------------------------------------------------------ *)
(* Process-wide throughput counters                                    *)
(* ------------------------------------------------------------------ *)

(* Cumulative over all launches in the process, across domains; callers
   (the tuner's sweep statistics, the perf bench) snapshot deltas to
   derive warp-instructions-per-second against their own wall clock. *)
let instrs_issued_total = Atomic.make 0
let runs_total = Atomic.make 0
let warp_instrs_issued () = Atomic.get instrs_issued_total
let sim_runs () = Atomic.get runs_total

(* ------------------------------------------------------------------ *)
(* Warp and block state                                                *)
(* ------------------------------------------------------------------ *)

type block_st = {
  cta_x : int;
  cta_y : int;
  shared : float array;
  local : float array;  (* per-thread local memory, thread-major *)
  mutable arrived : int;  (* warps waiting at the barrier *)
  mutable live_warps : int;
  mutable warps : warp array;  (* filled after creation *)
}

and warp = {
  wid : int;
  seq : int;  (* admission order on the SM; the scheduler tie-break *)
  valid_mask : int;
  fregs : float array;  (* reg-major: fregs.(r * 32 + lane) *)
  iregs : int array;
  pregs : bool array;
  ready : int array;  (* scoreboard: each register's ready cycle, F32 then S32 then Pred *)
  (* Divergence stack, array-backed: frame [i] is (s_bi, s_off, s_rpc,
     s_mask).(i); the top of stack is index [sp], -1 when empty. *)
  mutable s_bi : int array;
  mutable s_off : int array;
  mutable s_rpc : int array;
  mutable s_mask : int array;
  mutable sp : int;
  mutable exited : int;
  mutable wake : int;
  mutable at_barrier : bool;
  mutable finished : bool;
  mutable in_heap : bool;
  pending : int array;  (* completion cycles of in-flight long-latency ops *)
  mutable n_pending : int;
  blk : block_st;
}

let full_mask = 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* SM state                                                            *)
(* ------------------------------------------------------------------ *)

type sm = {
  mutable issue_free : int;  (* next cycle the issue pipe is free *)
  mutable mem_free : int;  (* next cycle the memory channel is free *)
  mutable n_warp_instrs : int;
  mutable n_tx : int;
  mutable n_bytes : int;
  mutable conflict_extra : int;
}

(* Per-launch environment: device, launch geometry, and the scratch
   of the memory path.  [addrs], [per_bank] and [ready_at] are reused
   by every memory access of the launch, so the hot path allocates
   nothing; each launch owns its env, keeping parallel domains safe. *)
type env = {
  dev : Device.t;
  arch : Arch.t;
  lat : Arch.latencies;  (* = arch.latencies, kept flat for the hot path *)
  bdim_x : int;
  bdim_y : int;
  gdim_x : int;
  gdim_y : int;
  timing : bool;
  sm : sm;
  budget : int;  (* watchdog: max warp instructions this launch may issue *)
  addrs : int array;  (* 32 lane addresses of the access in flight *)
  per_bank : int array;  (* arch.shared_banks counters *)
  mutable ready_at : int;  (* cycle the load in flight delivers, set by its charge *)
}

(* ------------------------------------------------------------------ *)
(* Memory cost rules                                                   *)
(* ------------------------------------------------------------------ *)

(* The memory rules of §2.1, each stated once, for one warp access to
   [space] whose active lanes ([mask]) hold their byte addresses in
   [addrs].  A launch charges them, and [Analysis.Coalesce] and
   [Analysis.Bank] fold them over the executions they enumerate, so a
   static prediction agrees with the dynamic counters by construction. *)

(* Off-chip traffic of half-warp [half] (0 or 1), packed as
   (transactions lsl 16) lor bytes so the hot path allocates no tuple
   ([traffic_tx], [traffic_bytes]).  Global memory coalesces on the G80
   rule: one 64-byte transaction iff the k-th active lane reads the k-th
   word of a 64-byte aligned segment, otherwise one transaction per
   active lane, of 32 bytes for a lone lane and of 64 bytes each for
   several.  Local memory is interleaved per thread, so hardware
   coalesces it: one 64-byte transaction.  Shared and constant memory
   are on-chip and move nothing, and neither does a half-warp with no
   active lane. *)
let[@inline] half_traffic (space : Instr.space) (addrs : int array) (mask : int) (half : int) : int =
  let lo = half * 16 in
  if (mask lsr lo) land 0xFFFF = 0 then 0
  else
    match space with
    | Instr.Shared | Instr.Const -> 0
    | Instr.Local -> (1 lsl 16) lor 64
    | Instr.Global ->
      let n_active = ref 0 and ok = ref true and seg_base = ref min_int in
      for l = lo to lo + 15 do
        if mask land (1 lsl l) <> 0 then begin
          incr n_active;
          let expect_base = addrs.(l) - (4 * (l - lo)) in
          if !seg_base = min_int then seg_base := expect_base
          else if !seg_base <> expect_base then ok := false
        end
      done;
      if !ok && !seg_base land 63 = 0 then (1 lsl 16) lor 64
      else if !n_active = 1 then (1 lsl 16) lor 32
      else (!n_active lsl 16) lor (64 * !n_active)

let[@inline] traffic_tx (p : int) : int = p lsr 16
let[@inline] traffic_bytes (p : int) : int = p land 0xFFFF

(* Shared-memory conflict degree over a half-warp: the maximum number
   of *distinct* addresses hitting one of the banks (same-address lanes
   broadcast).  [per_bank] is scratch, one counter per bank; distinctness
   is a pairwise check over the at most 16 active lanes, so no table
   is allocated. *)
let bank_degree (per_bank : int array) (addrs : int array) (mask : int) (half : int) : int =
  let lo = half * 16 in
  Array.fill per_bank 0 (Array.length per_bank) 0;
  let deg = ref 1 in
  for l = lo to lo + 15 do
    if mask land (1 lsl l) <> 0 then begin
      let a = addrs.(l) in
      let dup = ref false in
      for m = lo to l - 1 do
        if (not !dup) && mask land (1 lsl m) <> 0 && addrs.(m) = a then dup := true
      done;
      if not !dup then begin
        let bank = a lsr 2 land (Array.length per_bank - 1) in
        per_bank.(bank) <- per_bank.(bank) + 1;
        if per_bank.(bank) > !deg then deg := per_bank.(bank)
      end
    end
  done;
  !deg

(* Distinct addresses among active lanes of the whole warp.  The common
   case, every active lane reading one address, answers 1 after a
   single pass; only a divergent access pays the pairwise scan. *)
let distinct_addresses (addrs : int array) (mask : int) : int =
  let first = ref (-1) and uniform = ref true in
  for l = 0 to 31 do
    if mask land (1 lsl l) <> 0 then
      if !first < 0 then first := l else if addrs.(l) <> addrs.(!first) then uniform := false
  done;
  if !first < 0 then 0
  else if !uniform then 1
  else begin
    let n = ref 0 in
    for l = 0 to 31 do
      if mask land (1 lsl l) <> 0 then begin
        let a = addrs.(l) in
        let dup = ref false in
        for m = 0 to l - 1 do
          if (not !dup) && mask land (1 lsl m) <> 0 && addrs.(m) = a then dup := true
        done;
        if not !dup then incr n
      end
    done;
    !n
  end

(* Issue slots one warp access occupies.  Shared memory takes the worse
   of its two half-warps' bank-conflict degree; the single-ported
   constant cache serves one distinct address of the warp per slot; an
   off-chip access issues in one.  [per_bank] is scratch, one counter
   per bank: its length, a power of two, IS the bank count. *)
let[@inline] serialization (space : Instr.space) (per_bank : int array) (addrs : int array) (mask : int) :
    int =
  match space with
  | Instr.Shared -> max (bank_degree per_bank addrs mask 0) (bank_degree per_bank addrs mask 1)
  | Instr.Const -> max 1 (distinct_addresses addrs mask)
  | Instr.Global | Instr.Local -> 1

(* ------------------------------------------------------------------ *)
(* Compiled kernel form                                                *)
(* ------------------------------------------------------------------ *)

(* One pre-decoded instruction.  Everything static is resolved at
   compile time: operand accessors (register-file offsets, parameter
   values, special-register formulas), the destination write path, the
   latency class, the scoreboard offsets ([warp.ready]) of the source
   registers and the destination and, for memory accesses, the
   per-site counter.  The issue loop only consults these fields. *)
type dinstr = {
  d_srcs : int array;  (* scoreboard offsets of the source registers *)
  d_dst : int;  (* scoreboard offset of the destination; -1 for a store or Bar *)
  d_exec : warp -> int -> int -> int;  (* w mask c -> issue-pipe cost; sets d_dst's ready cycle *)
  d_long : bool;  (* occupies a scoreboard slot (global/local Ld, SFU) *)
  d_barrier : bool;
}

type dterm =
  | DJump of int
  | DRet
  | DBr of { p_slot : int; p_off : int; negate : bool; if_true : int; if_false : int; reconv : int }

type dblock = { dbody : dinstr array; dterm : dterm }

type pval = Pint of int | Pflt of float

(* Operand source descriptors, resolved once at decode: a register-file
   offset, a constant folded from immediates and parameters, or — for
   special registers only — a generic accessor.  The readers below are
   small enough for the non-flambda inliner, so lane loops touch the
   register files and constants directly: no per-lane closure calls,
   and float values stay unboxed through the arithmetic. *)
type fsrc = FR of int | FK of float | FG of (warp -> int -> float)
type isrc = IR of int | IK of int | IG of (warp -> int -> int)
type psrc = PR of int | PK of bool

let[@inline] get_i (s : isrc) (ir : int array) (w : warp) (l : int) : int =
  match s with IR o -> ir.(o + l) | IK k -> k | IG g -> g w l

let[@inline] get_p (s : psrc) (pr : bool array) (l : int) : bool =
  match s with PR o -> pr.(o + l) | PK k -> k

(* Materialize a float source into a flat 32-lane buffer: a single
   unboxed block copy for registers, a fill for constants; only special
   registers take the per-lane path.  Arithmetic loops then read and
   write float arrays exclusively, which the compiler keeps unboxed. *)
let fill_f (s : fsrc) (fr : float array) (w : warp) (mask : int) (dst : float array) : unit =
  match s with
  | FR o -> Array.blit fr o dst 0 32
  | FK k -> Array.fill dst 0 32 k
  | FG g ->
    for l = 0 to 31 do
      if mask land (1 lsl l) <> 0 then dst.(l) <- g w l
    done

(* Load write-back: store a float memory value into the destination
   register class. *)
let[@inline] put_ld (ty : Reg.ty) (fr : float array) (ir : int array) (pr : bool array)
    (doff : int) (l : int) (v : float) : unit =
  match ty with
  | Reg.F32 -> fr.(doff + l) <- v
  | Reg.S32 -> ir.(doff + l) <- int_of_float v
  | Reg.Pred -> pr.(doff + l) <- v <> 0.0

(* Same-module binary32 rounding, bit-identical to [Util.Float32.round]:
   storing a float into a float32 Bigarray cell and reading it back is
   the same double -> single -> double conversion pair that the
   reference's [Int32] round-trip performs inside two C calls.  With the
   element kind known statically, ocamlopt compiles the store and load
   to inline [cvtsd2ss]/[cvtss2sd], so a rounding is two instructions
   and no call; the non-flambda compiler does not inline across
   modules, which is why the helpers live here.  The cell is scratch
   that one rounding writes and reads back with nothing in between, so
   one per domain is enough: a launch runs on a single domain, and
   [compile_kernel] fetches the cell once per launch. *)
type f32cell = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let f32_cell : f32cell Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1)

let[@inline] f32 (cell : f32cell) (x : float) : float =
  Bigarray.Array1.unsafe_set cell 0 x;
  Bigarray.Array1.unsafe_get cell 0

(* The ALU operator semantics, spelled as inline functions over unboxed
   floats (binary32 semantics as in [Util.Float32]).  The operator is a
   constant constructor, so the per-lane dispatch is a jump table. *)
let[@inline] fbin (cell : f32cell) (op : Instr.fop2) (x : float) (y : float) : float =
  match op with
  | Instr.FAdd -> f32 cell (x +. y)
  | Instr.FSub -> f32 cell (x -. y)
  | Instr.FMul -> f32 cell (x *. y)
  | Instr.FDiv -> f32 cell (x /. y)
  | Instr.FMin -> if x < y || y <> y then x else y
  | Instr.FMax -> if x > y || y <> y then x else y

let[@inline] funop (cell : f32cell) (op : Instr.fop1) (x : float) : float =
  match op with
  | Instr.FNeg -> -.x
  | Instr.FAbs -> Float.abs x
  | Instr.FSqrt -> f32 cell (Float.sqrt x)
  | Instr.FRsqrt -> f32 cell (1.0 /. Float.sqrt x)
  | Instr.FRcp -> f32 cell (1.0 /. x)
  | Instr.FSin -> f32 cell (Float.sin x)
  | Instr.FCos -> f32 cell (Float.cos x)
  | Instr.FEx2 -> f32 cell (Float.pow 2.0 x)
  | Instr.FLg2 -> f32 cell (Float.log x /. Float.log 2.0)

let[@inline] ctest (cmp : Instr.cmp) (c : int) : bool =
  match cmp with
  | Instr.CEq -> c = 0
  | Instr.CNe -> c <> 0
  | Instr.CLt -> c < 0
  | Instr.CLe -> c <= 0
  | Instr.CGt -> c > 0
  | Instr.CGe -> c >= 0

(* Float setp uses IEEE comparison semantics, as the hardware's
   unordered-operand rules demand: any comparison with NaN is false
   except ne, which is true.  (Float.compare is a *total* order that
   sorts NaN below everything — using it here made the simulator
   disagree with [Kir.Interp] on NaN, the divergence documented and
   excluded in the golden tests until this fix.)  OCaml's polymorphic
   comparisons specialize to exactly IEEE on floats. *)
let[@inline] ftest (cmp : Instr.cmp) (x : float) (y : float) : bool =
  match cmp with
  | Instr.CEq -> x = y
  | Instr.CNe -> x <> y
  | Instr.CLt -> x < y
  | Instr.CLe -> x <= y
  | Instr.CGt -> x > y
  | Instr.CGe -> x >= y

(* Stored value as its float memory representation: a float source, or
   an S32 register-file offset converted lane-wise. *)
type vsrc = VF of fsrc | VI of int

let fill_v (s : vsrc) (fr : float array) (ir : int array) (w : warp) (mask : int)
    (dst : float array) : unit =
  match s with
  | VF f -> fill_f f fr w mask dst
  | VI o ->
    for l = 0 to 31 do
      if mask land (1 lsl l) <> 0 then dst.(l) <- float_of_int ir.(o + l)
    done

type ckernel = {
  dblocks : dblock array;
  nf : int;  (* register-file sizes per class *)
  nr : int;
  np : int;
  smem_words : int;
  lmem_words : int;
  sites : site_counter list;  (* one per Ld/St, in program order *)
}

(* ------------------------------------------------------------------ *)
(* Timing slice                                                        *)
(* ------------------------------------------------------------------ *)

(* A timing launch reports cycles, transactions, bank conflicts and
   site counters.  A lane's value reaches them only through a branch
   predicate (which lanes take which path) or a load or store base
   (coalescing, bank degree, constant broadcast and the bounds traps).
   The timing slice is the registers and memory spaces whose values
   can get there:

   - seeds: the base of every [Ld] and [St] and the predicate of every
     [Br];
   - an instruction whose destination is kept keeps its operands.  The
     rule is flow-insensitive by register, so every definition of a
     kept register is kept;
   - a load into a kept register keeps its global, shared or local
     space, and a store to a kept space keeps its value operand.
     Constant memory is read-only.

   At the fixpoint every value a kept instruction reads was computed
   by a kept instruction or loaded from a kept space, so executing
   only the kept work leaves every kept value, hence every statistic,
   as it was. *)
type slice = {
  keep_f : bool array;  (* kept registers per class, by index *)
  keep_r : bool array;
  keep_p : bool array;
  mutable keep_global : bool;  (* spaces whose stores keep their value *)
  mutable keep_shared : bool;
  mutable keep_local : bool;
}

let keeps (s : slice) (r : Reg.t) : bool =
  let i = Reg.idx r in
  match Reg.ty r with Reg.F32 -> s.keep_f.(i) | Reg.S32 -> s.keep_r.(i) | Reg.Pred -> s.keep_p.(i)

let keeps_space (s : slice) (sp : Instr.space) : bool =
  match sp with
  | Instr.Global -> s.keep_global
  | Instr.Shared -> s.keep_shared
  | Instr.Local -> s.keep_local
  | Instr.Const -> true

(* The slice of [k], whose register files are [nf], [nr] and [np]
   wide ([Prog.regfile_sizes], shared with the decode).  Each round
   walks the kernel backward, because a definition usually precedes
   its uses: straight-line chains close in one round, and loop-carried
   ones and the memory rule take one more each.  No round allocates. *)
let timing_slice (k : Prog.t) ~nf ~nr ~np : slice =
  let s =
    {
      keep_f = Array.make nf false;
      keep_r = Array.make nr false;
      keep_p = Array.make np false;
      keep_global = false;
      keep_shared = false;
      keep_local = false;
    }
  in
  let grew = ref true in
  let mark r =
    let a = match Reg.ty r with Reg.F32 -> s.keep_f | Reg.S32 -> s.keep_r | Reg.Pred -> s.keep_p in
    let i = Reg.idx r in
    if not a.(i) then begin
      a.(i) <- true;
      grew := true
    end
  in
  let keep_space (sp : Instr.space) =
    if not (keeps_space s sp) then begin
      (match sp with
      | Instr.Global -> s.keep_global <- true
      | Instr.Shared -> s.keep_shared <- true
      | Instr.Local -> s.keep_local <- true
      | Instr.Const -> ());
      grew := true
    end
  in
  let step (ins : Instr.t) =
    match ins with
    | Instr.Ld (sp, d, { base; _ }) ->
      Instr.use_op mark base;
      if keeps s d then keep_space sp
    | Instr.St (sp, { base; _ }, v) ->
      Instr.use_op mark base;
      if keeps_space s sp then Instr.use_op mark v
    | Instr.Bar -> ()
    | Instr.Mov (d, _)
    | Instr.F2 (_, d, _, _)
    | Instr.F1 (_, d, _)
    | Instr.Fmad (d, _, _, _)
    | Instr.I2 (_, d, _, _)
    | Instr.Imad (d, _, _, _)
    | Instr.Cvt_f2i (d, _)
    | Instr.Cvt_i2f (d, _)
    | Instr.Setp (_, _, d, _, _)
    | Instr.Selp (d, _, _, _)
    | Instr.Pnot (d, _)
    | Instr.P2 (_, d, _, _) -> if keeps s d then Instr.iter_uses mark ins
  in
  let rec body = function
    | [] -> ()
    | ins :: rest ->
      body rest;
      step ins
  in
  let rec blocks = function
    | [] -> ()
    | (b : Prog.block) :: rest ->
      blocks rest;
      (match b.term with Prog.Br { pred; _ } -> mark pred | Prog.Jump _ | Prog.Ret -> ());
      body b.body
  in
  while !grew do
    grew := false;
    blocks k.blocks
  done;
  s

(* ------------------------------------------------------------------ *)
(* Pre-decode                                                          *)
(* ------------------------------------------------------------------ *)

(* Charge [tx] transactions to the SM memory channel starting no
   earlier than [c]; returns the cycle the last transaction completes
   its channel occupancy. *)
let charge_channel env c ~tx ~bytes ~tx_cost =
  let sm = env.sm in
  sm.n_tx <- sm.n_tx + tx;
  sm.n_bytes <- sm.n_bytes + bytes;
  if not env.timing then c
  else begin
    sm.mem_free <- max sm.mem_free c + (tx * tx_cost);
    sm.mem_free
  end

(* Channel occupancy of each of a half-warp's [tx] transactions: a lone
   one streams at the coalesced rate, several at the uncoalesced. *)
let[@inline] tx_cost (lat : Arch.latencies) (tx : int) : int =
  if tx = 1 then lat.coalesced_tx else lat.uncoalesced_tx

(* The cost charges of one access, run after its lane loop has filled
   [env.addrs]: each counts the execution at the access's site [sc],
   sets [env.ready_at] to the cycle a load's value is ready and returns
   the issue-pipe cost.  Off-chip (global, local): each half-warp's
   traffic goes to the memory channel in turn from the cycle after
   issue, and the value arrives the memory latency after the last
   transaction.  On-chip (shared, constant): the access holds the issue
   pipe for its serialization degree; every slot past the first is a
   replay, and a shared-memory replay a bank-conflict cycle. *)
let[@inline] offchip_charge (env : env) (space : Instr.space) (sc : site_counter) (mask : int) (c : int) :
    int =
  let lat = env.lat in
  let p0 = half_traffic space env.addrs mask 0 and p1 = half_traffic space env.addrs mask 1 in
  let tx0 = traffic_tx p0 and tx1 = traffic_tx p1 in
  let by0 = traffic_bytes p0 and by1 = traffic_bytes p1 in
  sc.sc_execs <- sc.sc_execs + 1;
  sc.sc_tx <- sc.sc_tx + tx0 + tx1;
  sc.sc_bytes <- sc.sc_bytes + by0 + by1;
  let done0 = charge_channel env (c + lat.issue) ~tx:tx0 ~bytes:by0 ~tx_cost:(tx_cost lat tx0) in
  let done1 = charge_channel env done0 ~tx:tx1 ~bytes:by1 ~tx_cost:(tx_cost lat tx1) in
  env.ready_at <- done1 + lat.global;
  lat.issue

let[@inline] onchip_charge (env : env) (space : Instr.space) (sc : site_counter) (mask : int) (c : int) :
    int =
  let lat = env.lat in
  let deg = serialization space env.per_bank env.addrs mask in
  sc.sc_execs <- sc.sc_execs + 1;
  sc.sc_replays <- sc.sc_replays + (deg - 1);
  (match space with
  | Instr.Shared ->
    env.sm.conflict_extra <- env.sm.conflict_extra + ((deg - 1) * lat.issue);
    env.ready_at <- c + lat.shared
  | Instr.Const | Instr.Global | Instr.Local -> env.ready_at <- c + lat.const_hit);
  lat.issue * deg

(* A memory space as one decoded load or store sees it.  A lane's byte
   address [a] is in range iff [a / 4 < ms_words], and its word is
   [(ms_array w).((tid * ms_stride) + a / 4)], [tid] being the lane's
   thread in its block: local memory is interleaved per thread, its
   stride the kernel's [lmem_words], and every other space has stride
   0.  [ms_oob a] raises the error of an out-of-range address;
   [ms_charge mask c] is the space's cost charge. *)
type mspace = {
  ms_array : warp -> float array;
  ms_words : int;
  ms_stride : int;
  ms_oob : int -> unit;
  ms_charge : int -> int -> int;
}

(* One issue of a load, whose destination's ready cycle goes to
   scoreboard offset [dst], and of a store of the lane values [va].
   The lane loop puts each active lane's byte address into [env.addrs]
   and checks it in lane order, so the first lane out of range raises
   after a store has written exactly the lanes before it; the space's
   charge follows.  The full and the timing-only variant differ only in
   [move], whether the loop moves each lane's word.  It is a constant
   at each call site, so the inliner gives each variant a loop of its
   own. *)
let[@inline] load (env : env) (m : mspace) ~(move : bool) (base : isrc) (offset : int)
    (dty : Reg.ty) (doff : int) (dst : int) (w : warp) (mask : int) (c : int) : int =
  let fr = w.fregs and ir = w.iregs and pr = w.pregs and addrs = env.addrs in
  let mem = m.ms_array w and words = m.ms_words and stride = m.ms_stride in
  let tid0 = w.wid * 32 in
  for l = 0 to 31 do
    if mask land (1 lsl l) <> 0 then begin
      let a = get_i base ir w l + offset in
      addrs.(l) <- a;
      if a lsr 2 >= words then m.ms_oob a;
      if move then put_ld dty fr ir pr doff l mem.(((tid0 + l) * stride) + (a lsr 2))
    end
  done;
  let cost = m.ms_charge mask c in
  w.ready.(dst) <- env.ready_at;
  cost

let[@inline] store (env : env) (m : mspace) ~(move : bool) (base : isrc) (offset : int)
    (va : float array) (w : warp) (mask : int) (c : int) : int =
  let ir = w.iregs and addrs = env.addrs in
  let mem = m.ms_array w and words = m.ms_words and stride = m.ms_stride in
  let tid0 = w.wid * 32 in
  for l = 0 to 31 do
    if mask land (1 lsl l) <> 0 then begin
      let a = get_i base ir w l + offset in
      addrs.(l) <- a;
      if a lsr 2 >= words then m.ms_oob a;
      if move then mem.(((tid0 + l) * stride) + (a lsr 2)) <- va.(l)
    end
  done;
  m.ms_charge mask c

(* Compile [k] against the launch environment: resolve labels,
   parameters and operand classes once, turning each instruction into a
   [dinstr].  All operand/type validation happens here, at launch time,
   instead of on the execution path.  [regs] is [Prog.regfile_sizes k].
   A timing launch passes its [slice]: an instruction outside it
   decodes to its timing-only form, with the same validation, issue
   cost, latency and scoreboard effect and, for a memory access, the
   same lane addresses, bounds traps, memory cost and site counters,
   but no value computed, read or written.  A functional launch passes
   [None] and decodes every instruction in full. *)
let compile_kernel (env : env) ~regs:(nf, nr, np) ~(slice : slice option) (k : Prog.t)
    (args : (string * arg) list) : ckernel =
  let lat = env.lat in
  let cell = Domain.DLS.get f32_cell in
  let idx = Prog.block_index k in
  let find l =
    match Hashtbl.find_opt idx l with
    | Some i -> i
    | None -> launch_error "unknown block label %S" l
  in
  let keep_reg r = match slice with None -> true | Some s -> keeps s r in
  let keep_space sp = match slice with None -> true | Some s -> keeps_space s sp in
  let params : (string, pval) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Prog.param) ->
      match List.assoc_opt p.pname args with
      | None -> launch_error "missing kernel argument %S" p.pname
      | Some (I i) -> Hashtbl.replace params p.pname (Pint i)
      | Some (F f) -> Hashtbl.replace params p.pname (Pflt f)
      | Some (Buf b) -> Hashtbl.replace params p.pname (Pint b.Device.base))
    k.params;
  let param_int name =
    match Hashtbl.find_opt params name with
    | Some (Pint i) -> i
    | Some (Pflt _) -> launch_error "parameter %S used in integer context" name
    | None -> launch_error "unbound parameter %S" name
  in
  let param_flt name =
    match Hashtbl.find_opt params name with
    | Some (Pflt f) -> f
    | Some (Pint i) -> float_of_int i
    | None -> launch_error "unbound parameter %S" name
  in
  let bdx = env.bdim_x and bdy = env.bdim_y in
  let spec_int (s : Instr.special) : warp -> int -> int =
    match s with
    | Instr.Tid_x -> fun w lane -> ((w.wid * 32) + lane) mod bdx
    | Instr.Tid_y -> fun w lane -> ((w.wid * 32) + lane) / bdx mod bdy
    | Instr.Tid_z -> fun w lane -> ((w.wid * 32) + lane) / (bdx * bdy)
    | Instr.Ntid_x -> fun _ _ -> bdx
    | Instr.Ntid_y -> fun _ _ -> bdy
    | Instr.Ntid_z -> fun _ _ -> 1
    | Instr.Ctaid_x -> fun w _ -> w.blk.cta_x
    | Instr.Ctaid_y -> fun w _ -> w.blk.cta_y
    | Instr.Nctaid_x -> fun _ _ -> env.gdim_x
    | Instr.Nctaid_y -> fun _ _ -> env.gdim_y
  in
  let isrc_of (o : Instr.operand) : isrc =
    match o with
    | Instr.Reg r ->
      if Reg.ty r <> Reg.S32 then
        launch_error "register %s in integer context" (Reg.to_string r);
      IR (Reg.idx r * 32)
    | Instr.Imm_i i -> IK i
    | Instr.Imm_f _ -> launch_error "float immediate in integer context"
    | Instr.Spec s -> IG (spec_int s)
    | Instr.Par p -> IK (param_int p)
  in
  let fsrc_of (o : Instr.operand) : fsrc =
    match o with
    | Instr.Reg r ->
      if Reg.ty r <> Reg.F32 then
        launch_error "register %s in float context" (Reg.to_string r);
      FR (Reg.idx r * 32)
    | Instr.Imm_f f -> FK f
    | Instr.Imm_i i -> FK (float_of_int i)
    | Instr.Spec s ->
      let g = spec_int s in
      FG (fun w lane -> float_of_int (g w lane))
    | Instr.Par p -> FK (param_flt p)
  in
  let psrc_of (o : Instr.operand) : psrc =
    match o with
    | Instr.Reg r ->
      if Reg.ty r <> Reg.Pred then
        launch_error "register %s in predicate context" (Reg.to_string r);
      PR (Reg.idx r * 32)
    | Instr.Imm_i i -> PK (i <> 0)
    | _ -> launch_error "bad operand in predicate context"
  in
  (* Per-launch lane buffers for [fill_f].  One set suffices: an
     instruction materializes its sources, computes, and writes back
     before the next issues; each launch owns its own compile. *)
  let va = Array.make 32 0.0 and vb = Array.make 32 0.0 and vc = Array.make 32 0.0 in
  (* A register's offset in [warp.ready], and the offsets of an operand
     list's registers (immediates/params/specials are always ready). *)
  let slot (r : Reg.t) : int =
    Reg.idx r + match Reg.ty r with Reg.F32 -> 0 | Reg.S32 -> nf | Reg.Pred -> nf + nr
  in
  let srcs (ops : Instr.operand list) : int array =
    Array.of_list (List.filter_map (function Instr.Reg r -> Some (slot r) | _ -> None) ops)
  in
  (* ALU-class instruction: occupies [issue] cycles of the issue pipe,
     result ready [latency] cycles after issue; an SP op takes one slot
     and the pipeline RAW latency, an SFU op its own figures and, being
     [long], a scoreboard slot.  Outside the slice, [body] never runs. *)
  let alu ?(latency = lat.alu) ?(issue = lat.issue) ?(long = false) ops d
      (body : warp -> int -> unit) : dinstr =
    let dst = slot d in
    {
      d_srcs = srcs ops;
      d_dst = dst;
      d_exec =
        (if keep_reg d then fun w mask c ->
           body w mask;
           w.ready.(dst) <- c + latency;
           issue
         else fun w _ c ->
           w.ready.(dst) <- c + latency;
           issue);
      d_long = long;
      d_barrier = false;
    }
  in
  let lmem_words = k.lmem_words in
  (* The site counter of the memory instruction at [index] of block
     [label], collected in program order. *)
  let sites = ref [] in
  let site label index space =
    let sc =
      {
        sc_label = label;
        sc_index = index;
        sc_space = space;
        sc_execs = 0;
        sc_tx = 0;
        sc_bytes = 0;
        sc_replays = 0;
      }
    in
    sites := sc :: !sites;
    sc
  in
  (* The description of [space] that a load, or with [store] a store,
     counting at [sc], decodes against.  Each charge names its space as
     a constant, so the inlined rules compile to that space's case. *)
  let space_of (space : Instr.space) ~(store : bool) (sc : site_counter) : mspace =
    let dir = if store then "store" else "load" in
    match space with
    | Instr.Global ->
      let g = env.dev.Device.glob in
      {
        ms_array = (fun _ -> g);
        ms_words = env.dev.Device.glob_brk;
        ms_stride = 0;
        (* out of range, so it traps and writes nothing *)
        ms_oob =
          (if store then fun a -> Device.write_global env.dev a 0.0
           else fun a -> ignore (Device.read_global env.dev a));
        ms_charge = (fun mask c -> offchip_charge env Instr.Global sc mask c);
      }
    | Instr.Const when store -> launch_error "stores to constant memory are not allowed"
    | Instr.Const ->
      let cst = env.dev.Device.cst in
      {
        ms_array = (fun _ -> cst);
        ms_words = Array.length cst;
        ms_stride = 0;
        ms_oob = (fun a -> ignore (Device.read_const env.dev a));
        ms_charge = (fun mask c -> onchip_charge env Instr.Const sc mask c);
      }
    | Instr.Shared ->
      {
        ms_array = (fun w -> w.blk.shared);
        ms_words = max 1 k.smem_words;  (* [make_block]'s array *)
        ms_stride = 0;
        ms_oob = (fun a -> launch_error "shared %s out of bounds (addr %d)" dir a);
        ms_charge = (fun mask c -> onchip_charge env Instr.Shared sc mask c);
      }
    | Instr.Local ->
      {
        ms_array = (fun w -> w.blk.local);
        ms_words = lmem_words;
        ms_stride = lmem_words;
        ms_oob = (fun a -> launch_error "local %s out of bounds (addr %d)" dir a);
        ms_charge = (fun mask c -> offchip_charge env Instr.Local sc mask c);
      }
  in
  let decode_instr (label : string) (index : int) (ins : Instr.t) : dinstr =
    match ins with
    | Instr.Mov (d, a) -> (
      let doff = Reg.idx d * 32 in
      match Reg.ty d with
      | Reg.F32 -> (
        match fsrc_of a with
        | FR o ->
          alu [ a ] d (fun w mask ->
              let fr = w.fregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fr.(o + l)
              done)
        | FK k ->
          alu [ a ] d (fun w mask ->
              let fr = w.fregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then fr.(doff + l) <- k
              done)
        | FG g ->
          alu [ a ] d (fun w mask ->
              let fr = w.fregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then fr.(doff + l) <- g w l
              done))
      | Reg.S32 ->
        let a' = isrc_of a in
        alu [ a ] d (fun w mask ->
            let ir = w.iregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then ir.(doff + l) <- get_i a' ir w l
            done)
      | Reg.Pred ->
        let a' = psrc_of a in
        alu [ a ] d (fun w mask ->
            let pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then pr.(doff + l) <- get_p a' pr l
            done))
    | Instr.F2 (op, d, a, b) -> (
      let a' = fsrc_of a and b' = fsrc_of b in
      let doff = Reg.idx d * 32 in
      (* Register and constant operands read their sources in the loop;
         only special-register operands go through the fill buffers. *)
      match (a', b') with
      | FR ao, FR bo ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- fbin cell op fr.(ao + l) fr.(bo + l)
            done)
      | FR ao, FK y ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fbin cell op fr.(ao + l) y
            done)
      | FK x, FR bo ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fbin cell op x fr.(bo + l)
            done)
      | _ ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            fill_f a' fr w mask va;
            fill_f b' fr w mask vb;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fbin cell op va.(l) vb.(l)
            done))
    | Instr.F1 (op, d, a) ->
      let a' = fsrc_of a in
      let doff = Reg.idx d * 32 in
      let body =
        match a' with
        | FR ao ->
          fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- funop cell op fr.(ao + l)
            done
        | _ ->
          fun w mask ->
            let fr = w.fregs in
            fill_f a' fr w mask va;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- funop cell op va.(l)
            done
      in
      if Instr.is_sfu_op op then
        alu ~latency:lat.sfu ~issue:lat.sfu_issue ~long:true [ a ] d body
      else alu [ a ] d body
    | Instr.Fmad (d, a, b, cc) -> (
      let a' = fsrc_of a and b' = fsrc_of b and c' = fsrc_of cc in
      let doff = Reg.idx d * 32 in
      (* The G80 MAD is unfused: round the product, then the sum. *)
      match (a', b', c') with
      | FR ao, FR bo, FR co ->
        alu [ a; b; cc ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- f32 cell (f32 cell (fr.(ao + l) *. fr.(bo + l)) +. fr.(co + l))
            done)
      | _ ->
        alu [ a; b; cc ] d (fun w mask ->
            let fr = w.fregs in
            fill_f a' fr w mask va;
            fill_f b' fr w mask vb;
            fill_f c' fr w mask vc;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- f32 cell (f32 cell (va.(l) *. vb.(l)) +. vc.(l))
            done))
    | Instr.I2 (op, d, a, b) ->
      let a' = isrc_of a and b' = isrc_of b in
      let doff = Reg.idx d * 32 in
      alu [ a; b ] d (fun w mask ->
          let ir = w.iregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then begin
              let x = get_i a' ir w l and y = get_i b' ir w l in
              ir.(doff + l) <-
                (match op with
                | Instr.IAdd -> x + y
                | Instr.ISub -> x - y
                | Instr.IMul -> x * y
                | Instr.IDiv -> if y = 0 then 0 else x / y
                | Instr.IRem -> if y = 0 then 0 else x mod y
                | Instr.IMin -> min x y
                | Instr.IMax -> max x y
                | Instr.IAnd -> x land y
                | Instr.IOr -> x lor y
                | Instr.IXor -> x lxor y
                | Instr.IShl -> x lsl y
                | Instr.IShr -> x asr y)
            end
          done)
    | Instr.Imad (d, a, b, cc) ->
      let a' = isrc_of a and b' = isrc_of b and c' = isrc_of cc in
      let doff = Reg.idx d * 32 in
      alu [ a; b; cc ] d (fun w mask ->
          let ir = w.iregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then
              ir.(doff + l) <- (get_i a' ir w l * get_i b' ir w l) + get_i c' ir w l
          done)
    | Instr.Cvt_f2i (d, a) -> (
      let a' = fsrc_of a in
      let doff = Reg.idx d * 32 in
      match a' with
      | FR ao ->
        alu [ a ] d (fun w mask ->
            let fr = w.fregs and ir = w.iregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then ir.(doff + l) <- int_of_float fr.(ao + l)
            done)
      | _ ->
        alu [ a ] d (fun w mask ->
            let fr = w.fregs and ir = w.iregs in
            fill_f a' fr w mask va;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then ir.(doff + l) <- int_of_float va.(l)
            done))
    | Instr.Cvt_i2f (d, a) ->
      let a' = isrc_of a in
      let doff = Reg.idx d * 32 in
      alu [ a ] d (fun w mask ->
          let fr = w.fregs and ir = w.iregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then
              fr.(doff + l) <- f32 cell (float_of_int (get_i a' ir w l))
          done)
    | Instr.Setp (cmp, ty, d, a, b) -> (
      let doff = Reg.idx d * 32 in
      match ty with
      | Reg.F32 -> (
        let a' = fsrc_of a and b' = fsrc_of b in
        match (a', b') with
        | FR ao, FR bo ->
          alu [ a; b ] d (fun w mask ->
              let fr = w.fregs and pr = w.pregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then
                  pr.(doff + l) <- ftest cmp fr.(ao + l) fr.(bo + l)
              done)
        | FR ao, FK y ->
          alu [ a; b ] d (fun w mask ->
              let fr = w.fregs and pr = w.pregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then
                  pr.(doff + l) <- ftest cmp fr.(ao + l) y
              done)
        | _ ->
          alu [ a; b ] d (fun w mask ->
              let fr = w.fregs and pr = w.pregs in
              fill_f a' fr w mask va;
              fill_f b' fr w mask vb;
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then
                  pr.(doff + l) <- ftest cmp va.(l) vb.(l)
              done))
      | Reg.S32 | Reg.Pred ->
        let a' = isrc_of a and b' = isrc_of b in
        alu [ a; b ] d (fun w mask ->
            let ir = w.iregs and pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                pr.(doff + l) <- ctest cmp (compare (get_i a' ir w l) (get_i b' ir w l))
            done))
    | Instr.Selp (d, a, b, p) -> (
      let p' = psrc_of p in
      let doff = Reg.idx d * 32 in
      match Reg.ty d with
      | Reg.F32 ->
        let a' = fsrc_of a and b' = fsrc_of b in
        alu [ a; b; p ] d (fun w mask ->
            let fr = w.fregs and pr = w.pregs in
            fill_f a' fr w mask va;
            fill_f b' fr w mask vb;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- (if get_p p' pr l then va.(l) else vb.(l))
            done)
      | Reg.S32 ->
        let a' = isrc_of a and b' = isrc_of b in
        alu [ a; b; p ] d (fun w mask ->
            let ir = w.iregs and pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                ir.(doff + l) <-
                  (if get_p p' pr l then get_i a' ir w l else get_i b' ir w l)
            done)
      | Reg.Pred ->
        let a' = psrc_of a and b' = psrc_of b in
        alu [ a; b; p ] d (fun w mask ->
            let pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                pr.(doff + l) <- (if get_p p' pr l then get_p a' pr l else get_p b' pr l)
            done))
    | Instr.Pnot (d, a) ->
      let a' = psrc_of a in
      let doff = Reg.idx d * 32 in
      alu [ a ] d (fun w mask ->
          let pr = w.pregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then pr.(doff + l) <- not (get_p a' pr l)
          done)
    | Instr.P2 (op, d, a, b) ->
      let a' = psrc_of a and b' = psrc_of b in
      let doff = Reg.idx d * 32 in
      alu [ a; b ] d (fun w mask ->
          let pr = w.pregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then begin
              let x = get_p a' pr l and y = get_p b' pr l in
              pr.(doff + l) <-
                (match op with
                | Instr.PAnd -> x && y
                | Instr.POr -> x || y
                | Instr.PXor -> x <> y)
            end
          done)
    | Instr.Ld (space, d, { base; offset }) ->
      let base' = isrc_of base in
      let m = space_of space ~store:false (site label index space) in
      let dty = Reg.ty d and doff = Reg.idx d * 32 and dst = slot d in
      (* Outside the slice a load addresses, checks its bounds and pays
         its cost as in full, and moves no word to its register. *)
      let move = keep_reg d in
      {
        d_srcs = srcs [ base ];
        d_dst = dst;
        d_exec =
          (if move then fun w mask c -> load env m ~move:true base' offset dty doff dst w mask c
           else fun w mask c -> load env m ~move:false base' offset dty doff dst w mask c);
        d_long = (match space with Instr.Global | Instr.Local -> true | _ -> false);
        d_barrier = false;
      }
    | Instr.St (space, { base; offset }, v) ->
      let base' = isrc_of base in
      (* Stored value as the float memory representation. *)
      let v' : vsrc =
        match v with
        | Instr.Reg r when Reg.ty r = Reg.S32 -> VI (Reg.idx r * 32)
        | Instr.Reg _ | Instr.Imm_f _ -> VF (fsrc_of v)
        | Instr.Imm_i i -> VF (FK (float_of_int i))
        | Instr.Spec s ->
          let g = spec_int s in
          VF (FG (fun w l -> float_of_int (g w l)))
        | Instr.Par p -> VF (FK (param_flt p))
      in
      let m = space_of space ~store:true (site label index space) in
      (* A store to a space outside the slice addresses, checks its
         bounds and pays its cost as in full, and moves no word. *)
      let move = keep_space space in
      {
        d_srcs = srcs [ base; v ];
        d_dst = -1;
        d_exec =
          (if move then fun w mask c ->
             fill_v v' w.fregs w.iregs w mask va;
             store env m ~move:true base' offset va w mask c
           else fun w mask c -> store env m ~move:false base' offset va w mask c);
        d_long = false;
        d_barrier = false;
      }
    | Instr.Bar ->
      {
        d_srcs = [||];
        d_dst = -1;
        d_exec = (fun _ _ _ -> assert false);  (* handled by the scheduler *)
        d_long = false;
        d_barrier = true;
      }
  in
  let dblocks =
    Array.of_list
      (List.map
         (fun (b : Prog.block) ->
           let dterm =
             match b.term with
             | Prog.Jump l -> DJump (find l)
             | Prog.Ret -> DRet
             | Prog.Br { pred; negate; if_true; if_false; reconv } ->
               if Reg.ty pred <> Reg.Pred then
                 launch_error "register %s in predicate context" (Reg.to_string pred);
               DBr
                 {
                   p_slot = slot pred;
                   p_off = Reg.idx pred * 32;
                   negate;
                   if_true = find if_true;
                   if_false = find if_false;
                   reconv = find reconv;
                 }
           in
           let dbody = Array.of_list (List.mapi (decode_instr b.label) b.body) in
           { dbody; dterm })
         k.blocks)
  in
  { dblocks; nf; nr; np; smem_words = k.smem_words; lmem_words; sites = List.rev !sites }

(* ------------------------------------------------------------------ *)
(* SIMT control flow                                                   *)
(* ------------------------------------------------------------------ *)

let top_mask (w : warp) = w.s_mask.(w.sp) land lnot w.exited land w.valid_mask

let push_frame (w : warp) ~bi ~off ~rpc ~mask =
  let n = w.sp + 1 in
  if n >= Array.length w.s_bi then begin
    let cap = 2 * Array.length w.s_bi in
    let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
    w.s_bi <- grow w.s_bi;
    w.s_off <- grow w.s_off;
    w.s_rpc <- grow w.s_rpc;
    w.s_mask <- grow w.s_mask
  end;
  w.s_bi.(n) <- bi;
  w.s_off.(n) <- off;
  w.s_rpc.(n) <- rpc;
  w.s_mask.(n) <- mask;
  w.sp <- n

(* Pop frames whose pc reached their reconvergence point or whose lanes
   have all exited. *)
let rec normalize (w : warp) =
  if w.sp < 0 then w.finished <- true
  else begin
    let sp = w.sp in
    if
      top_mask w = 0
      || (w.s_off.(sp) = 0 && w.s_bi.(sp) = w.s_rpc.(sp) && w.s_rpc.(sp) >= 0)
    then begin
      w.sp <- sp - 1;
      normalize w
    end
  end

(* Execute the terminator of the current block for warp [w]. *)
let exec_term (env : env) (ck : ckernel) (w : warp) (mask : int) : int =
  let sp = w.sp in
  (match ck.dblocks.(w.s_bi.(sp)).dterm with
  | DJump target ->
    w.s_bi.(sp) <- target;
    w.s_off.(sp) <- 0;
    normalize w
  | DRet ->
    w.exited <- w.exited lor mask;
    w.sp <- sp - 1;
    normalize w
  | DBr { p_off; negate; if_true; if_false; reconv; _ } ->
    let taken = ref 0 in
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        if w.pregs.(p_off + lane) <> negate then taken := !taken lor (1 lsl lane)
    done;
    let not_taken = mask land lnot !taken in
    if not_taken = 0 then begin
      w.s_bi.(sp) <- if_true;
      w.s_off.(sp) <- 0;
      normalize w
    end
    else if !taken = 0 then begin
      w.s_bi.(sp) <- if_false;
      w.s_off.(sp) <- 0;
      normalize w
    end
    else begin
      (* Divergence: current frame becomes the continuation at the
         reconvergence point (keeping its own rpc, so the pc = rpc pop
         rule does not fire on it); the two sides run first (taken on
         top). *)
      w.s_bi.(sp) <- reconv;
      w.s_off.(sp) <- 0;
      push_frame w ~bi:if_false ~off:0 ~rpc:reconv ~mask:not_taken;
      push_frame w ~bi:if_true ~off:0 ~rpc:reconv ~mask:!taken;
      normalize w
    end);
  env.lat.issue

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

(* Scoreboard-depth bookkeeping: a warp may track only the arch's
   scoreboard depth of outstanding long-latency results; issuing
   another long-latency instruction first waits for the oldest to
   retire. *)
let drop_retired (w : warp) (c : int) =
  let k = ref 0 in
  for idx = 0 to w.n_pending - 1 do
    if w.pending.(idx) > c then begin
      w.pending.(!k) <- w.pending.(idx);
      incr k
    end
  done;
  w.n_pending <- !k

(* Earliest cycle at which a slot frees (the minimum pending time). *)
let earliest_slot (w : warp) =
  let m = ref max_int in
  for idx = 0 to w.n_pending - 1 do
    if w.pending.(idx) < !m then m := w.pending.(idx)
  done;
  !m

let record_pending (w : warp) (completion : int) =
  if w.n_pending < Array.length w.pending then begin
    w.pending.(w.n_pending) <- completion;
    w.n_pending <- w.n_pending + 1
  end

(* Earliest cycle warp [w] could issue its next instruction, given its
   scoreboard (ignores the SM issue pipe).  It reads only the warp's own
   state — pc, wake cycle, register ready cycles, pending slots — which
   changes only when the warp issues or a barrier releases it, and
   repeated calls on unchanged state agree ([drop_retired] is
   idempotent at a fixed cycle). *)
let warp_earliest (env : env) (ck : ckernel) (w : warp) : int =
  if not env.timing then w.wake
  else begin
    let sp = w.sp in
    let db = ck.dblocks.(w.s_bi.(sp)) in
    let off = w.s_off.(sp) in
    if off >= Array.length db.dbody then
      match db.dterm with
      | DBr { p_slot; _ } -> max w.wake w.ready.(p_slot)
      | DJump _ | DRet -> w.wake
    else begin
      let di = db.dbody.(off) in
      let srcs = di.d_srcs and ready = w.ready in
      let e = ref w.wake in
      for i = 0 to Array.length srcs - 1 do
        e := max !e ready.(srcs.(i))
      done;
      let e = !e in
      if di.d_long then begin
        drop_retired w e;
        if w.n_pending >= Array.length w.pending then max e (earliest_slot w) else e
      end
      else e
    end
  end

(* Issue one instruction for warp [w] at cycle [c].  Returns the number
   of cycles the instruction occupies the issue pipe (which throttles
   both this warp and, via the scheduler, the whole SM — SFU ops, bank
   conflicts and divergent constant accesses all serialize here).
   [release] is called when a barrier completes, with the block and the
   completion cycle, after all parked warps have been woken. *)
let issue (env : env) (ck : ckernel) ~(release : block_st -> int -> unit) (w : warp) (c : int) :
    int =
  let sp = w.sp in
  let mask = top_mask w in
  env.sm.n_warp_instrs <- env.sm.n_warp_instrs + 1;
  if env.sm.n_warp_instrs > env.budget then
    raise (Watchdog { issued = env.sm.n_warp_instrs; budget = env.budget });
  let db = ck.dblocks.(w.s_bi.(sp)) in
  let off = w.s_off.(sp) in
  if off >= Array.length db.dbody then begin
    let cost = exec_term env ck w mask in
    w.wake <- c + cost;
    cost
  end
  else begin
    let di = db.dbody.(off) in
    if di.d_barrier then begin
      w.s_off.(sp) <- off + 1;
      w.at_barrier <- true;
      w.blk.arrived <- w.blk.arrived + 1;
      if w.blk.arrived >= w.blk.live_warps then
        (* All live warps arrived: release everyone. *)
        release w.blk c;
      env.lat.issue
    end
    else begin
      let cost = di.d_exec w mask c in
      w.s_off.(sp) <- off + 1;
      w.wake <- c + cost;
      if env.timing && di.d_long then begin
        drop_retired w c;
        record_pending w w.ready.(di.d_dst)
      end;
      cost
    end
  end

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

let make_block (env : env) (ck : ckernel) ~(seq : int ref) (cta_x : int) (cta_y : int)
    (start_cycle : int) : block_st =
  let tpb = env.bdim_x * env.bdim_y in
  let n_warps = Util.Stats.cdiv tpb 32 in
  let blk =
    {
      cta_x;
      cta_y;
      shared = Array.make (max 1 ck.smem_words) 0.0;
      local = (if ck.lmem_words > 0 then Array.make (tpb * ck.lmem_words) 0.0 else [||]);
      arrived = 0;
      live_warps = n_warps;
      warps = [||];
    }
  in
  blk.warps <-
    Array.init n_warps (fun wid ->
        let lanes = min 32 (tpb - (wid * 32)) in
        let valid_mask = if lanes = 32 then full_mask else (1 lsl lanes) - 1 in
        let s = !seq in
        incr seq;
        {
          wid;
          seq = s;
          valid_mask;
          fregs = Array.make (max 1 ck.nf * 32) 0.0;
          iregs = Array.make (max 1 ck.nr * 32) 0;
          pregs = Array.make (max 1 ck.np * 32) false;
          ready = Array.make (max 1 (ck.nf + ck.nr + ck.np)) 0;
          s_bi = Array.make 4 0;
          s_off = Array.make 4 0;
          s_rpc = [| -1; 0; 0; 0 |];
          s_mask = [| full_mask; 0; 0; 0 |];
          sp = 0;
          exited = 0;
          wake = start_cycle;
          at_barrier = false;
          finished = false;
          in_heap = false;
          pending = Array.make env.arch.Arch.scoreboard_depth 0;
          n_pending = 0;
          blk;
        });
  blk

(* Binary min-heap of runnable warps, ordered lexicographically by
   (key, admission seq).  A key is the warp's exact [warp_earliest],
   computed when it is pushed: a queued warp does not issue, and a
   barrier releases only warps parked outside the heap, so nothing
   changes a key while its warp waits, and the top is the warp the
   linear scan would pick.  Entries are unique per warp ([in_heap]), so
   the (key, seq) order is total and pop order is deterministic.

   The heap holds ints only, keys and seqs in two arrays, so moving an
   entry is two plain stores, with no write barrier as a [warp array]
   would need; the popped warp is found by its seq in [hwarp], written
   once when the warp is admitted and once when its block retires, so
   a finished block's memory is not held for the rest of the run.
   [hkey] and [hseq] hold every resident warp at once, so they never
   grow. *)
type wheap = {
  hkey : int array;
  hseq : int array;
  mutable hn : int;
  mutable hwarp : warp option array;  (* resident warps by seq *)
}

let[@inline] heap_before (k1 : int) (s1 : int) (k2 : int) (s2 : int) : bool =
  k1 < k2 || (k1 = k2 && s1 < s2)

(* A warp's seq is the number of warps admitted before it, so the
   table only grows at its end. *)
let heap_admit (h : wheap) (w : warp) =
  if w.seq = Array.length h.hwarp then begin
    let nw = Array.make (max 8 (2 * w.seq)) None in
    Array.blit h.hwarp 0 nw 0 w.seq;
    h.hwarp <- nw
  end;
  h.hwarp.(w.seq) <- Some w

(* Sift up from the new last slot, moving parents down into the hole. *)
let heap_push (h : wheap) (key : int) (w : warp) =
  let hk = h.hkey and hs = h.hseq and seq = w.seq in
  let i = ref h.hn in
  h.hn <- h.hn + 1;
  w.in_heap <- true;
  while !i > 0 && heap_before key seq hk.((!i - 1) / 2) hs.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    hk.(!i) <- hk.(p);
    hs.(!i) <- hs.(p);
    i := p
  done;
  hk.(!i) <- key;
  hs.(!i) <- seq

(* Take the top, then sift the last entry down from the root, moving
   the lesser child up into the hole. *)
let heap_pop (h : wheap) : warp =
  let hk = h.hkey and hs = h.hseq in
  let w =
    match h.hwarp.(hs.(0)) with Some w -> w | None -> assert false (* a queued warp is resident *)
  in
  let n = h.hn - 1 in
  h.hn <- n;
  if n > 0 then begin
    let key = hk.(n) and seq = hs.(n) in
    let i = ref 0 and continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let s = if l + 1 < n && heap_before hk.(l + 1) hs.(l + 1) hk.(l) hs.(l) then l + 1 else l in
        if heap_before hk.(s) hs.(s) key seq then begin
          hk.(!i) <- hk.(s);
          hs.(!i) <- hs.(s);
          i := s
        end
        else continue_ := false
      end
    done;
    hk.(!i) <- key;
    hs.(!i) <- seq
  end;
  w.in_heap <- false;
  w

(* Run [block_coords] through one SM with at most [b_sm] resident
   blocks; returns the cycle the last block finishes. *)
let run_sm (env : env) (ck : ckernel) ~(scheduler : scheduler)
    (block_coords : (int * int) list) (b_sm : int) : int =
  let lat = env.lat in
  let pending_blocks = ref block_coords in
  let resident_blocks = ref 0 in
  let finish_cycle = ref 0 in
  let seq = ref 0 in
  let n_unfinished = ref 0 in
  (* Warp wake-up on barrier completion: reset the arrival count and
     wake every live warp of the block (including the warp that issued
     the completing Bar). *)
  let base_release (blk : block_st) (c : int) =
    blk.arrived <- 0;
    Array.iter
      (fun w' ->
        if not w'.finished then begin
          w'.at_barrier <- false;
          w'.wake <- max w'.wake (c + lat.issue)
        end)
      blk.warps
  in
  (* Bring pending blocks in, up to the residency limit, handing each
     new warp to the scheduler's [push]. *)
  let rec admit (push : warp -> unit) (c : int) =
    match !pending_blocks with
    | (bx, by) :: rest when !resident_blocks < b_sm ->
      pending_blocks := rest;
      let blk = make_block env ck ~seq bx by c in
      incr resident_blocks;
      n_unfinished := !n_unfinished + Array.length blk.warps;
      Array.iter push blk.warps;
      admit push c
    | _ -> ()
  in
  (* Bookkeeping shared by both schedulers after warp [w] issued at
     cycle [c] with issue-pipe cost [cost]; [retire] removes a finished
     block's warps from the scheduler structure, [admit] brings in
     pending blocks.  Returns true while the SM still has work. *)
  let post_issue ~(release : block_st -> int -> unit) ~(retire : block_st -> unit)
      ~(admit : int -> unit) (w : warp) (c : int) (cost : int) =
    if env.timing then env.sm.issue_free <- c + cost;
    if w.finished then begin
      decr n_unfinished;
      let blk = w.blk in
      blk.live_warps <- blk.live_warps - 1;
      (* A warp exiting while others wait at the barrier can now
         satisfy it. *)
      if blk.live_warps > 0 && blk.arrived >= blk.live_warps then release blk c;
      if blk.live_warps = 0 then begin
        finish_cycle := max !finish_cycle (c + lat.issue);
        retire blk;
        decr resident_blocks;
        admit (c + lat.issue)
      end
    end;
    if env.timing then finish_cycle := max !finish_cycle env.sm.issue_free
  in
  (match scheduler with
  | Heap ->
    let resident = b_sm * Util.Stats.cdiv (env.bdim_x * env.bdim_y) 32 in
    let heap =
      { hkey = Array.make resident 0; hseq = Array.make resident 0; hn = 0; hwarp = [||] }
    in
    let push w = heap_push heap (warp_earliest env ck w) w in
    let release blk c =
      base_release blk c;
      Array.iter
        (fun w' -> if (not w'.finished) && (not w'.at_barrier) && not w'.in_heap then push w')
        blk.warps
    in
    let admit =
      admit (fun w ->
          heap_admit heap w;
          push w)
    in
    (* Finished warps are never in the heap; the table lets them go. *)
    let retire (blk : block_st) = Array.iter (fun w' -> heap.hwarp.(w'.seq) <- None) blk.warps in
    admit 0;
    while heap.hn > 0 do
      let e = heap.hkey.(0) in
      let w = heap_pop heap in
      let c = if env.timing then max e env.sm.issue_free else e in
      let cost = issue env ck ~release w c in
      if (not w.finished) && (not w.at_barrier) && not w.in_heap then push w;
      post_issue ~release ~retire ~admit w c cost
    done;
    if !n_unfinished > 0 then
      raise (Trap "Sim: deadlock — all live warps waiting at a barrier")
  | Scan ->
    (* Reference scheduler: pick the runnable warp with the smallest
       earliest-issue cycle by scanning the resident array in admission
       order (ties resolve to the lowest admission seq, exactly the
       heap's order). *)
    let rv = ref [||] in
    let rn = ref 0 in
    let push w =
      if !rn = Array.length !rv then begin
        let cap = max 8 (2 * Array.length !rv) in
        let nv = Array.make cap w in
        Array.blit !rv 0 nv 0 !rn;
        rv := nv
      end;
      !rv.(!rn) <- w;
      incr rn
    in
    let release = base_release in
    let admit = admit push in
    let retire (blk : block_st) =
      (* In-place compaction preserving admission order. *)
      let k = ref 0 in
      for i = 0 to !rn - 1 do
        let w = !rv.(i) in
        if w.blk != blk then begin
          !rv.(!k) <- w;
          incr k
        end
      done;
      rn := !k
    in
    admit 0;
    let continue_ = ref (!rn > 0) in
    while !continue_ do
      let best_w = ref None in
      let best_e = ref 0 in
      for i = 0 to !rn - 1 do
        let w = !rv.(i) in
        if (not w.finished) && not w.at_barrier then begin
          let e = warp_earliest env ck w in
          match !best_w with
          | Some _ when !best_e <= e -> ()
          | _ ->
            best_w := Some w;
            best_e := e
        end
      done;
      (match !best_w with
      | None ->
        if !n_unfinished > 0 then
          raise (Trap "Sim: deadlock — all live warps waiting at a barrier")
        else continue_ := false
      | Some w ->
        let e = !best_e in
        let c = if env.timing then max e env.sm.issue_free else e in
        let cost = issue env ck ~release w c in
        post_issue ~release ~retire ~admit w c cost;
        if !rn = 0 && !pending_blocks = [] then continue_ := false)
    done);
  !finish_cycle

let default_max_blocks = 24

(* Launch a kernel.  In [Timing] mode, simulates the blocks assigned to
   one representative SM (capped) and extrapolates; in [Functional]
   mode executes every block of the grid. *)
let run ?(mode = Functional) ?(arch = Arch.g80) ?(scheduler = Heap) ?budget (dev : Device.t)
    (l : launch) : stats =
  let limits = arch.Arch.limits in
  (* The execution core is structurally 32-wide: lane loops, the full
     mask and the half-warp memory rules all assume warps of 32.  All
     registry machines share that width; reject anything else rather
     than silently mis-simulate. *)
  if limits.Arch.warp_size <> 32 then
    launch_error "arch %S has warp size %d; the simulator is 32-wide" arch.Arch.name
      limits.Arch.warp_size;
  if arch.Arch.shared_banks land (arch.Arch.shared_banks - 1) <> 0 || arch.Arch.shared_banks <= 0
  then
    launch_error "arch %S has %d shared banks; bank interleaving needs a power of two"
      arch.Arch.name arch.Arch.shared_banks;
  let gx, gy = l.grid in
  let bx, by = l.block in
  let tpb = bx * by in
  if gx <= 0 || gy <= 0 then launch_error "empty grid (%d x %d)" gx gy;
  if tpb <= 0 then launch_error "empty block (%d x %d)" bx by;
  if tpb > limits.Arch.max_threads_per_block then
    launch_error "block of %d threads exceeds the %d-thread limit" tpb
      limits.Arch.max_threads_per_block;
  if l.kernel.Prog.smem_words * 4 > limits.Arch.smem_per_sm then
    launch_error "shared memory (%d bytes) exceeds per-SM capacity" (l.kernel.Prog.smem_words * 4);
  let resource = Ptx.Resource.of_kernel l.kernel in
  let occ =
    Arch.occupancy ~arch ~threads_per_block:tpb ~regs_per_thread:resource.regs_per_thread
      ~smem_per_block:resource.smem_bytes_per_block ()
  in
  let timing = match mode with Timing _ -> true | Functional -> false in
  if timing && not (Arch.is_valid occ) then
    launch_error "invalid executable: 0 blocks fit an SM (%s limited)" occ.limiter;
  let sm =
    { issue_free = 0; mem_free = 0; n_warp_instrs = 0; n_tx = 0; n_bytes = 0; conflict_extra = 0 }
  in
  (* Watchdog budget: explicit cap, or derived from the launch shape —
     simulated warps times the per-warp cap (never below one warp's
     worth, so degenerate launches keep headroom). *)
  let budget =
    match budget with
    | Some b ->
      if b < 1 then launch_error "watchdog budget must be >= 1 (got %d)" b;
      b
    | None ->
      let warps_per_block = (tpb + 31) / 32 in
      let blocks_accounted =
        match mode with
        | Functional -> gx * gy
        | Timing { max_blocks } -> min (gx * gy) (max 1 max_blocks)
      in
      max 1 (warps_per_block * blocks_accounted) * default_watchdog_per_warp
  in
  let nf, nr, np = Prog.regfile_sizes l.kernel in
  let slice = if timing then Some (timing_slice l.kernel ~nf ~nr ~np) else None in
  (* A timing launch writes nothing of the caller's device: it stores
     to global memory only when the slice keeps global stores, and then
     on a copy of its own. *)
  let dev = match slice with Some s when s.keep_global -> Device.clone dev | _ -> dev in
  let env =
    {
      dev;
      arch;
      lat = arch.Arch.latencies;
      bdim_x = bx;
      bdim_y = by;
      gdim_x = gx;
      gdim_y = gy;
      timing;
      sm;
      budget;
      addrs = Array.make 32 0;
      per_bank = Array.make arch.Arch.shared_banks 0;
      ready_at = 0;
    }
  in
  let ck = compile_kernel env ~regs:(nf, nr, np) ~slice l.kernel l.args in
  let total_blocks = gx * gy in
  let coord i = (i mod gx, i / gx) in
  let cycles, time_s, blocks_simulated =
    match mode with
    | Functional ->
      (* Execute every block; blocks are independent, so one at a time. *)
      for i = 0 to total_blocks - 1 do
        ignore (run_sm env ck ~scheduler [ coord i ] 1)
      done;
      (0.0, 0.0, total_blocks)
    | Timing { max_blocks } ->
      (* Blocks are distributed round-robin over SMs; simulate SM 0's
         share (grid blocks 0, num_sms, 2 num_sms, ...), capped, and
         extrapolate. *)
      let num_sms = limits.Arch.num_sms in
      let n_assigned = Util.Stats.cdiv total_blocks num_sms in
      let n_sim = min n_assigned (max 1 max_blocks) in
      (* Simulate whole residency waves where possible: a trailing
         partial wave under-fills the SM and, in a small sample, biases
         the linear extrapolation upward far more than the real run's
         single tail wave does. *)
      let n_sim =
        if n_sim >= occ.blocks_per_sm && n_sim < n_assigned then
          n_sim / occ.blocks_per_sm * occ.blocks_per_sm
        else n_sim
      in
      let simulated = List.init n_sim (fun j -> coord (j * num_sms)) in
      let cycles_sim = run_sm env ck ~scheduler simulated occ.blocks_per_sm in
      let scale = float_of_int n_assigned /. float_of_int n_sim in
      let cycles = float_of_int cycles_sim *. scale in
      (cycles, cycles /. Arch.clock_hz arch, n_sim)
  in
  ignore (Atomic.fetch_and_add instrs_issued_total sm.n_warp_instrs);
  Atomic.incr runs_total;
  {
    cycles;
    time_s;
    total_blocks;
    blocks_simulated;
    warp_instrs = sm.n_warp_instrs;
    gmem_transactions = sm.n_tx;
    gmem_bytes = sm.n_bytes;
    bank_conflict_extra = sm.conflict_extra;
    occupancy = occ;
    regs_per_thread = resource.regs_per_thread;
    site_counters = ck.sites;
  }
