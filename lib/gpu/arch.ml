(* Machine-model registry.

   The paper computes everything — occupancy cliffs, Eq.1/Eq.2
   metrics, the Pareto frontier — against one machine, the GeForce
   8800 GTX (Tables 1-2, section 2.1).  This module makes that machine
   a *value*: [t] packages the resource limits, the latency model, the
   shared-memory bank and coalescing geometry, and the clock/bandwidth
   figures, and a small named registry supplies at least three points
   so sweeps can ask "which configuration wins per machine" instead of
   "what is fast on a G80".

   [g80] carries the paper's numbers verbatim (worked example in
   section 2.2: 256 threads/block, 10 regs/thread, 4KB smem/block ->
   3 blocks/SM; raising to 11 regs -> 2 blocks/SM), and every default
   in the system is [g80], so historical digests, store keys and
   golden simulator results are bit-identical to the pre-registry
   code. *)

(* ------------------------------------------------------------------ *)
(* Table 2: resource constraints                                       *)
(* ------------------------------------------------------------------ *)

type limits = {
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (* 32-bit registers *)
  smem_per_sm : int;  (* bytes *)
  max_threads_per_block : int;
  warp_size : int;
  num_sms : int;
  sps_per_sm : int;
  sfus_per_sm : int;
}

(* ------------------------------------------------------------------ *)
(* Latency model (cycles)                                              *)
(* ------------------------------------------------------------------ *)

type latencies = {
  issue : int;  (* cycles a warp occupies the issue pipe: 32 threads / 8 SPs *)
  sfu_issue : int;  (* SFU ops issue at quarter rate: 32 threads / 2 SFUs / 4 *)
  alu : int;  (* register RAW latency of SP pipeline *)
  sfu : int;
  shared : int;
  const_hit : int;
  global : int;  (* Table 1: 200-300 cycles; we use the midpoint *)
  coalesced_tx : int;  (* channel occupancy of one 64B transaction at 4 B/cycle *)
  uncoalesced_tx : int;
      (* channel occupancy of one un-coalesced access: the G80 memory
         controller issues a full 64B transaction per straggler lane,
         wasting ~94% of the fetched bytes for a 4B read *)
}

(* ------------------------------------------------------------------ *)
(* The machine model                                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  name : string;  (* registry key, as accepted by --arch *)
  display : string;
  limits : limits;
  latencies : latencies;
  scoreboard_depth : int;
      (* per-warp long-latency results in flight before issue stalls:
         what makes thread-level parallelism necessary once a warp's
         own ILP exceeds the window — the paper's Figure 5 story *)
  shared_banks : int;  (* power of two; word-interleaved *)
  clock_ghz : float;
  global_bandwidth_gbs : float;
  flops_per_sm_per_cycle : int;  (* for the peak-GFLOPS headline *)
}

let g80 : t =
  {
    name = "g80";
    display = "GeForce 8800 GTX (paper Tables 1-2)";
    limits =
      {
        max_threads_per_sm = 768;
        max_blocks_per_sm = 8;
        regs_per_sm = 8192;
        smem_per_sm = 16384;
        max_threads_per_block = 512;
        warp_size = 32;
        num_sms = 16;
        sps_per_sm = 8;
        sfus_per_sm = 2;
      };
    latencies =
      {
        issue = 4;
        sfu_issue = 16;
        alu = 24;
        sfu = 36;
        shared = 36;
        const_hit = 8;
        global = 250;
        coalesced_tx = 16;
        uncoalesced_tx = 16;
      };
    scoreboard_depth = 6;
    shared_banks = 16;
    clock_ghz = 1.35;
    global_bandwidth_gbs = 86.4;
    flops_per_sm_per_cycle = 18;
  }

(* A wide/modern point in the spirit of a Fermi-class part: 32 banks,
   a 4x register file, single-cycle issue, deeper scoreboard, but a
   longer way to DRAM.  Occupancy cliffs land at different block
   shapes than on the G80, so tuned winners legitimately differ. *)
let wide32 : t =
  {
    name = "wide32";
    display = "wide modern SM (32 banks, 32K regs)";
    limits =
      {
        max_threads_per_sm = 1536;
        max_blocks_per_sm = 8;
        regs_per_sm = 32768;
        smem_per_sm = 49152;
        max_threads_per_block = 1024;
        warp_size = 32;
        num_sms = 14;
        sps_per_sm = 32;
        sfus_per_sm = 4;
      };
    latencies =
      {
        issue = 1;
        sfu_issue = 8;
        alu = 18;
        sfu = 28;
        shared = 26;
        const_hit = 6;
        global = 400;
        coalesced_tx = 8;
        uncoalesced_tx = 8;
      };
    scoreboard_depth = 10;
    shared_banks = 32;
    clock_ghz = 1.15;
    global_bandwidth_gbs = 144.0;
    flops_per_sm_per_cycle = 64;
  }

(* An extreme low-resource point in the spirit of an FPGA soft GPU:
   two tiny SMs, a 2K-register file, 4 shared banks, slow issue but a
   short, fully on-board path to memory.  Most large block shapes do
   not even launch here, so the per-arch winner table genuinely
   disagrees with the discrete GPUs. *)
let fpga_soft : t =
  {
    name = "fpga_soft";
    display = "FPGA soft GPU (2 SMs, 2K regs, 4 banks)";
    limits =
      {
        max_threads_per_sm = 256;
        max_blocks_per_sm = 4;
        regs_per_sm = 2048;
        smem_per_sm = 8192;
        max_threads_per_block = 256;
        warp_size = 32;
        num_sms = 2;
        sps_per_sm = 4;
        sfus_per_sm = 1;
      };
    latencies =
      {
        issue = 8;
        sfu_issue = 32;
        alu = 12;
        sfu = 64;
        shared = 12;
        const_hit = 4;
        global = 60;
        coalesced_tx = 32;
        uncoalesced_tx = 32;
      };
    scoreboard_depth = 2;
    shared_banks = 4;
    clock_ghz = 0.15;
    global_bandwidth_gbs = 0.6;
    flops_per_sm_per_cycle = 8;
  }

(* The registry, in presentation order.  [g80] first: it is the
   default everywhere and the machine all golden results pin. *)
let archs : t list = [ g80; wide32; fpga_soft ]
let names : string list = List.map (fun a -> a.name) archs
let find (name : string) : t option = List.find_opt (fun a -> a.name = name) archs

(* ------------------------------------------------------------------ *)
(* Derived figures                                                     *)
(* ------------------------------------------------------------------ *)

let clock_hz (a : t) : float = a.clock_ghz *. 1e9

(* Peak: G80 = 16 SM * 18 FLOP/SM/cycle * 1.35 GHz = 388.8 GFLOPS. *)
let peak_gflops (a : t) : float =
  float_of_int (a.limits.num_sms * a.flops_per_sm_per_cycle) *. a.clock_ghz

(* Off-chip bytes each SM can consume per cycle: the G80's 86.4 GB/s
   at 1.35 GHz over 16 SMs is 4 bytes. *)
let bytes_per_cycle_per_sm (a : t) : float =
  a.global_bandwidth_gbs *. 1e9 /. clock_hz a /. float_of_int a.limits.num_sms

(* ------------------------------------------------------------------ *)
(* Table 1: properties of GeForce 8800 memories (for reports)          *)
(* ------------------------------------------------------------------ *)

type memory_row = {
  mem_name : string;
  location : string;
  size : string;
  latency : string;
  read_only : bool;
  description : string;
}

let memories : memory_row list =
  [
    {
      mem_name = "Global";
      location = "off-chip";
      size = "768MB total";
      latency = "200-300 cycles";
      read_only = false;
      description =
        "Large DRAM; all data resides here at kernel start; coalesced when a \
         half-warp accesses contiguous elements";
    };
    {
      mem_name = "Shared";
      location = "on-chip";
      size = "16KB per SM";
      latency = "~register latency";
      read_only = false;
      description = "Per-block scratchpad organized into 16 banks";
    };
    {
      mem_name = "Constant";
      location = "on-chip cache";
      size = "64KB total";
      latency = "~register latency";
      read_only = true;
      description = "8KB cache per SM; single-ported, broadcast on same address";
    };
    {
      mem_name = "Texture";
      location = "on-chip cache";
      size = "up to global";
      latency = ">100 cycles";
      read_only = true;
      description = "16KB cache per two SMs; 2D locality (modeled as cached global)";
    };
    {
      mem_name = "Local";
      location = "off-chip";
      size = "up to global";
      latency = "same as global";
      read_only = false;
      description = "Register spilling space";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Occupancy                                                           *)
(* ------------------------------------------------------------------ *)

type occupancy = {
  blocks_per_sm : int;  (* the paper's B_SM; 0 means the launch is invalid *)
  warps_per_block : int;  (* the paper's W_TB *)
  warps_per_sm : int;
  threads_per_sm : int;
  limiter : string;  (* which resource bound B_SM *)
}

(* B_SM as computed in section 4 of the paper: the maximum number of
   blocks, up to the per-SM block limit, whose combined threads,
   registers and shared memory fit the per-SM limits. *)
let occupancy ?(arch = g80) ~threads_per_block ~regs_per_thread ~smem_per_block () : occupancy =
  let limits = arch.limits in
  let warps_per_block = Util.Stats.cdiv threads_per_block limits.warp_size in
  if threads_per_block <= 0 || threads_per_block > limits.max_threads_per_block then
    {
      blocks_per_sm = 0;
      warps_per_block;
      warps_per_sm = 0;
      threads_per_sm = 0;
      limiter = "threads per block";
    }
  else begin
    let by_threads = limits.max_threads_per_sm / threads_per_block in
    let by_regs =
      if regs_per_thread <= 0 then limits.max_blocks_per_sm
      else limits.regs_per_sm / (regs_per_thread * threads_per_block)
    in
    let by_smem =
      if smem_per_block <= 0 then limits.max_blocks_per_sm else limits.smem_per_sm / smem_per_block
    in
    let b =
      List.fold_left min limits.max_blocks_per_sm [ by_threads; by_regs; by_smem ]
    in
    let limiter =
      if b = limits.max_blocks_per_sm then "max blocks"
      else if b = by_regs && by_regs <= by_threads && by_regs <= by_smem then "registers"
      else if b = by_smem && by_smem <= by_threads then "shared memory"
      else "threads"
    in
    let b = max b 0 in
    {
      blocks_per_sm = b;
      warps_per_block;
      warps_per_sm = b * warps_per_block;
      threads_per_sm = b * threads_per_block;
      limiter;
    }
  end

let is_valid o = o.blocks_per_sm > 0
