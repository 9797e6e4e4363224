(* The paper's static performance metrics (section 4).

   Efficiency (Eq. 1):   1 / (Instr * Threads)
   Utilization (Eq. 2):  (Instr / Regions) * [ (W_TB - 1)/2 + (B_SM - 1) * W_TB ]

   Worked example from the paper (complete-unroll 4k x 4k matmul):
   Instr = 15150, Regions = 769, Threads = 2^24, W_TB = 8, B_SM = 2
   =>  Efficiency = 3.93e-12, Utilization ~ 227.
   That exact computation is a unit test.

   The metrics assume global-memory bandwidth is not the limiting
   factor; [bandwidth_bound] is the paper's quick screen for when that
   assumption fails and the Pareto front should be read with care. *)

type t = { efficiency : float; utilization : float }

let compute ~instr ~regions ~threads ~warps_per_block ~blocks_per_sm : t =
  let w_tb = float_of_int warps_per_block in
  let b_sm = float_of_int blocks_per_sm in
  let efficiency = if instr <= 0.0 || threads <= 0.0 then 0.0 else 1.0 /. (instr *. threads) in
  let independent_warps = ((w_tb -. 1.0) /. 2.0) +. ((b_sm -. 1.0) *. w_tb) in
  let utilization = if regions <= 0.0 then 0.0 else instr /. regions *. independent_warps in
  { efficiency; utilization }

let of_candidate (c : Candidate.t) : t =
  compute ~instr:c.profile.instr ~regions:c.profile.regions
    ~threads:(float_of_int c.threads_total) ~warps_per_block:c.occupancy.warps_per_block
    ~blocks_per_sm:c.occupancy.blocks_per_sm

(* Bandwidth screen (section 4): estimated bytes per cycle demanded of
   off-chip memory when compute resources run at full tilt.  With all
   SMs issuing one warp-instruction per [issue] cycles, a kernel whose
   dynamic instruction stream transfers [global_bytes] bytes over
   [instr] instructions demands
       bytes/cycle/SM = global_bytes/thread / (instr/thread) * warp / issue
   against the arch's sustainable bytes/cycle/SM (4 on the G80 at
   32 threads per 4-cycle issue).  Both sides come from the
   candidate's own arch, so the screen is meaningful on every registry
   machine, not just the G80. *)
let demanded_bytes_per_cycle_per_sm (c : Candidate.t) : float =
  if c.profile.instr <= 0.0 then 0.0
  else
    c.profile.global_bytes /. c.profile.instr
    *. float_of_int c.arch.Gpu.Arch.limits.warp_size
    /. float_of_int c.arch.Gpu.Arch.latencies.issue

let bandwidth_bound (c : Candidate.t) : bool =
  demanded_bytes_per_cycle_per_sm c > Gpu.Arch.bytes_per_cycle_per_sm c.arch

(* Normalize a list of metric points so each axis has maximum 1 (the
   paper's Figure 6 presentation). *)
let normalize (ms : t list) : t list =
  let max_e = List.fold_left (fun a m -> Float.max a m.efficiency) 0.0 ms in
  let max_u = List.fold_left (fun a m -> Float.max a m.utilization) 0.0 ms in
  let d v m = if m <= 0.0 then 0.0 else v /. m in
  List.map (fun m -> { efficiency = d m.efficiency max_e; utilization = d m.utilization max_u }) ms
