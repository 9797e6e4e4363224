(* Tests for the GPU substrate: machine model and occupancy, device
   memory, coalescing and bank-conflict analysis, SIMT execution
   (divergence, barriers, early exit), and first-order timing
   behaviour. *)

open Gpu
module I = Ptx.Instr

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Arch / occupancy                                                    *)
(* ------------------------------------------------------------------ *)

let arch_tests =
  [
    t "paper worked example: 10 regs -> 3 blocks, 11 regs -> 2" (fun () ->
        let o k = (Arch.occupancy ~threads_per_block:256 ~regs_per_thread:k ~smem_per_block:4096 ()).blocks_per_sm in
        check_i "10 regs" 3 (o 10);
        check_i "11 regs" 2 (o 11));
    t "thread limit caps blocks" (fun () ->
        let o = Arch.occupancy ~threads_per_block:512 ~regs_per_thread:1 ~smem_per_block:0 () in
        check_i "1 block by threads" 1 o.blocks_per_sm);
    t "shared-memory limit caps blocks" (fun () ->
        let o = Arch.occupancy ~threads_per_block:64 ~regs_per_thread:1 ~smem_per_block:6000 () in
        check_i "2 blocks by smem" 2 o.blocks_per_sm);
    t "max eight blocks per SM" (fun () ->
        let o = Arch.occupancy ~threads_per_block:32 ~regs_per_thread:1 ~smem_per_block:0 () in
        check_i "8 blocks" 8 o.blocks_per_sm);
    t "too many registers -> invalid executable" (fun () ->
        let o = Arch.occupancy ~threads_per_block:256 ~regs_per_thread:33 ~smem_per_block:0 () in
        check_i "0 blocks" 0 o.blocks_per_sm;
        check_b "invalid" false (Arch.is_valid o));
    t "oversized block -> invalid" (fun () ->
        let o = Arch.occupancy ~threads_per_block:513 ~regs_per_thread:1 ~smem_per_block:0 () in
        check_b "invalid" false (Arch.is_valid o));
    t "warps per block round up" (fun () ->
        let o = Arch.occupancy ~threads_per_block:33 ~regs_per_thread:1 ~smem_per_block:0 () in
        check_i "2 warps" 2 o.warps_per_block);
    t "peak arithmetic matches the paper (388.8 GFLOPS)" (fun () ->
        check_b "peak" true (Float.abs (Arch.peak_gflops Arch.g80 -. 388.8) < 0.01));
    t "per-SM bandwidth is 4 bytes per cycle" (fun () ->
        check_b "bw" true (Float.abs (Arch.bytes_per_cycle_per_sm Arch.g80 -. 4.0) < 0.01));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"occupancy is antitone in register usage (qcheck)" ~count:300
         QCheck.(pair (int_range 1 40) (int_range 1 40))
         (fun (r1, r2) ->
           let o r =
             (Arch.occupancy ~threads_per_block:128 ~regs_per_thread:r ~smem_per_block:1024 ())
               .blocks_per_sm
           in
           if r1 > r2 then o r1 <= o r2 else true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"occupancy never violates any limit (qcheck)" ~count:300
         QCheck.(triple (int_range 1 512) (int_range 0 64) (int_range 0 20000))
         (fun (tpb, regs, smem) ->
           let o = Arch.occupancy ~threads_per_block:tpb ~regs_per_thread:regs ~smem_per_block:smem () in
           let b = o.blocks_per_sm in
           b <= 8
           && b * tpb <= 768
           && b * regs * tpb <= 8192
           && (smem = 0 || b * smem <= 16384)));
  ]

(* ------------------------------------------------------------------ *)
(* Device memory                                                       *)
(* ------------------------------------------------------------------ *)

let device_tests =
  [
    t "alloc / copy roundtrip" (fun () ->
        let d = Device.create () in
        let b = Device.alloc d 16 in
        let src = Array.init 16 float_of_int in
        Device.to_device d b src;
        check_b "roundtrip" true (Device.of_device d b = src));
    t "buffers do not alias" (fun () ->
        let d = Device.create () in
        let a = Device.alloc d 8 and b = Device.alloc d 8 in
        Device.fill d a 1.0;
        Device.fill d b 2.0;
        check_b "a intact" true (Array.for_all (( = ) 1.0) (Device.of_device d a));
        check_b "b intact" true (Array.for_all (( = ) 2.0) (Device.of_device d b)));
    t "global memory grows on demand" (fun () ->
        let d = Device.create ~global_words:4 () in
        let b = Device.alloc d 100000 in
        Device.set d b 99999 42.0;
        check_b "grown" true (Device.get d b 99999 = 42.0));
    t "word access is bounds-checked" (fun () ->
        let d = Device.create () in
        let b = Device.alloc d 4 in
        check_b "raises" true
          (try
             ignore (Device.get d b 4);
             false
           with Invalid_argument _ -> true));
    t "constant bank enforces the 64KB architectural limit" (fun () ->
        let d = Device.create () in
        ignore (Device.alloc_const d 16000);
        check_b "raises" true
          (try
             ignore (Device.alloc_const d 1000);
             false
           with Failure _ -> true));
    t "byte-addressed raw access matches word access" (fun () ->
        let d = Device.create () in
        let b = Device.alloc d 4 in
        Device.set d b 2 7.5;
        check_b "read_global" true (Device.read_global d (b.base + 8) = 7.5));
  ]

(* ------------------------------------------------------------------ *)
(* The memory cost rules (unit level)                                  *)
(* ------------------------------------------------------------------ *)

let full = 0xFFFFFFFF

(* (transactions, bytes) of one half-warp under [Sim.half_traffic]. *)
let traffic space addrs mask half =
  let p = Sim.half_traffic space addrs mask half in
  (Sim.traffic_tx p, Sim.traffic_bytes p)

let check_traffic what expected got =
  Alcotest.(check (pair int int)) what expected got

(* Issue slots of one warp access on the G80's 16 banks. *)
let slots space addrs mask = Sim.serialization space (Array.make 16 0) addrs mask

let coalesce_tests =
  [
    t "contiguous aligned half-warp -> one 64B transaction" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 4) in
        check_traffic "half 0" (1, 64) (traffic Ptx.Instr.Global addrs full 0);
        check_traffic "half 1" (1, 64) (traffic Ptx.Instr.Global addrs full 1));
    t "misaligned base breaks coalescing" (fun () ->
        let addrs = Array.init 32 (fun l -> 4 + (l * 4)) in
        check_i "uncoalesced" 16 (fst (traffic Ptx.Instr.Global addrs full 0)));
    t "strided access breaks coalescing" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 8) in
        check_i "uncoalesced" 16 (fst (traffic Ptx.Instr.Global addrs full 0)));
    t "an uncoalesced half-warp moves 16 transactions of 64B" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 128) in
        check_traffic "half 0" (16, 1024) (traffic Ptx.Instr.Global addrs full 0));
    t "a single unaligned global lane moves one 32B transaction" (fun () ->
        let addrs = Array.make 32 36 in
        check_traffic "lane 3" (1, 32) (traffic Ptx.Instr.Global addrs (1 lsl 3) 0));
    t "inactive lanes leave holes but keep the pattern coalesced" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 4) in
        let mask = 0x0000FF0F in
        (* some lanes of half 0 inactive *)
        check_i "one tx" 1 (fst (traffic Ptx.Instr.Global addrs mask 0)));
    t "no active lanes -> no transaction" (fun () ->
        let addrs = Array.make 32 0 in
        check_traffic "zero" (0, 0) (traffic Ptx.Instr.Global addrs 0 0));
    t "local memory moves one 64B transaction per active half-warp" (fun () ->
        (* Interleaved per thread, whatever the lanes' addresses. *)
        let addrs = Array.init 32 (fun l -> l * 1000) in
        let mask = 0x00000100 in
        check_traffic "active half" (1, 64) (traffic Ptx.Instr.Local addrs mask 0);
        check_traffic "inactive half" (0, 0) (traffic Ptx.Instr.Local addrs mask 1));
    t "on-chip spaces move no off-chip traffic" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 4) in
        check_traffic "shared" (0, 0) (traffic Ptx.Instr.Shared addrs full 0);
        check_traffic "const" (0, 0) (traffic Ptx.Instr.Const addrs full 1));
    t "conflict-free shared access (consecutive words)" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 4) in
        check_i "degree 1" 1 (slots Ptx.Instr.Shared addrs full));
    t "same-address broadcast is conflict-free" (fun () ->
        let addrs = Array.make 32 256 in
        check_i "degree 1" 1 (slots Ptx.Instr.Shared addrs full));
    t "stride-2 words give 2-way conflicts" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 8) in
        check_i "degree 2" 2 (slots Ptx.Instr.Shared addrs full));
    t "stride-16 words give 16-way conflicts" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 64) in
        check_i "degree 16" 16 (slots Ptx.Instr.Shared addrs full));
    t "a shared access takes the worse of its two half-warps" (fun () ->
        (* Half 0 conflict-free, half 1 four-way. *)
        let addrs = Array.init 32 (fun l -> if l < 16 then l * 4 else (l - 16) / 4 * 64) in
        check_i "half 1 alone" 4 (slots Ptx.Instr.Shared addrs 0xFFFF0000);
        check_i "half 0 alone" 1 (slots Ptx.Instr.Shared addrs 0x0000FFFF);
        check_i "both" 4 (slots Ptx.Instr.Shared addrs full);
        (* Swapping the halves keeps the maximum. *)
        let swapped = Array.init 32 (fun l -> addrs.((l + 16) mod 32)) in
        check_i "swapped" 4 (slots Ptx.Instr.Shared swapped full));
    t "a uniform constant-cache warp takes one slot" (fun () ->
        check_i "broadcast" 1 (slots Ptx.Instr.Const (Array.make 32 128) full));
    t "a constant-cache warp takes one slot per distinct address" (fun () ->
        List.iter
          (fun k ->
            let addrs = Array.init 32 (fun l -> l mod k * 4) in
            check_i (Printf.sprintf "%d distinct" k) k (slots Ptx.Instr.Const addrs full))
          [ 2; 3; 7; 32 ]);
    t "off-chip accesses issue in one slot" (fun () ->
        let addrs = Array.init 32 (fun l -> l * 64) in
        check_i "global" 1 (slots Ptx.Instr.Global addrs full);
        check_i "local" 1 (slots Ptx.Instr.Local addrs full));
  ]

(* ------------------------------------------------------------------ *)
(* Execution: control flow, barriers, early exit                       *)
(* ------------------------------------------------------------------ *)

(* Helpers: compile a tiny KIR kernel and run it. *)
let run_kir ?(grid = (1, 1)) ?(block = (32, 1)) ~args k =
  let d = Device.create () in
  let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
  let launch = { Sim.kernel = ptx; grid; block; args = args d } in
  ignore (Sim.run ~mode:Sim.Functional d launch);
  d

open Kir.Ast

let exec_tests =
  [
    t "divergent if assigns per-lane values" (fun () ->
        let k =
          {
            kname = "div";
            scalar_params = [];
            array_params = [ { aname = "O"; aspace = Global } ];
            shared_decls = [];
            local_decls = [];
            body =
              [
                If
                  ( Bin (Rem, tid_x, i 2) =: i 0,
                    [ Store ("O", tid_x, f 1.0) ],
                    [ Store ("O", tid_x, f 2.0) ] );
              ];
          }
        in
        let buf = ref None in
        let d =
          run_kir k ~args:(fun d ->
              let b = Device.alloc d 32 in
              buf := Some b;
              [ ("O", Sim.Buf b) ])
        in
        let out = Device.of_device d (Option.get !buf) in
        Array.iteri
          (fun l v -> check_b "lane" true (v = if l mod 2 = 0 then 1.0 else 2.0))
          out);
    t "divergent loop trip counts reconverge" (fun () ->
        (* each lane runs tid+1 iterations *)
        let k =
          {
            kname = "divloop";
            scalar_params = [];
            array_params = [ { aname = "O"; aspace = Global } ];
            shared_decls = [];
            local_decls = [];
            body =
              [
                Mut ("acc", S32, i 0);
                For
                  {
                    var = "j";
                    lo = i 0;
                    hi = tid_x +: i 1;
                    step = i 1;
                    trip = Some 16;
                    body = [ Assign ("acc", v "acc" +: i 1) ];
                  };
                Store ("O", tid_x, Un (ToF, v "acc"));
              ];
          }
        in
        let buf = ref None in
        let d =
          run_kir k ~args:(fun d ->
              let b = Device.alloc d 32 in
              buf := Some b;
              [ ("O", Sim.Buf b) ])
        in
        let out = Device.of_device d (Option.get !buf) in
        Array.iteri (fun l x -> check_b "trip" true (x = float_of_int (l + 1))) out);
    t "early return masks lanes out of later stores" (fun () ->
        let k =
          {
            kname = "ret";
            scalar_params = [];
            array_params = [ { aname = "O"; aspace = Global } ];
            shared_decls = [];
            local_decls = [];
            body =
              [
                If (tid_x >=: i 10, [ Return ], []);
                Store ("O", tid_x, f 5.0);
              ];
          }
        in
        let buf = ref None in
        let d =
          run_kir k ~args:(fun d ->
              let b = Device.alloc d 32 in
              buf := Some b;
              [ ("O", Sim.Buf b) ])
        in
        let out = Device.of_device d (Option.get !buf) in
        Array.iteri
          (fun l x -> check_b "masked" true (x = if l < 10 then 5.0 else 0.0))
          out);
    t "barrier orders shared-memory communication across warps" (fun () ->
        (* warp 1 reads what warp 0 wrote: only correct with a barrier *)
        let k =
          {
            kname = "barrier";
            scalar_params = [];
            array_params = [ { aname = "O"; aspace = Global } ];
            shared_decls = [ ("s", 64) ];
            local_decls = [];
            body =
              [
                Store ("s", tid_x, Un (ToF, tid_x) *: f 3.0);
                Sync;
                Store ("O", tid_x, Ld ("s", i 63 -: tid_x));
              ];
          }
        in
        let buf = ref None in
        let d =
          run_kir ~block:(64, 1) k ~args:(fun d ->
              let b = Device.alloc d 64 in
              buf := Some b;
              [ ("O", Sim.Buf b) ])
        in
        let out = Device.of_device d (Option.get !buf) in
        Array.iteri
          (fun l x -> check_b "cross-warp" true (x = float_of_int ((63 - l) * 3)))
          out);
    t "invalid launches are rejected" (fun () ->
        let d = Device.create () in
        let o = Device.alloc d 32 in
        let k =
          Kir.Lower.lower
            {
              kname = "nop";
              scalar_params = [];
              array_params = [ { aname = "O"; aspace = Global } ];
              shared_decls = [];
              local_decls = [];
              body = [ Store ("O", i 0, f 1.0) ];
            }
        in
        let bad block =
          try
            ignore
              (Sim.run d { Sim.kernel = k; grid = (1, 1); block; args = [ ("O", Sim.Buf o) ] });
            false
          with Sim.Launch_error _ -> true
        in
        check_b "too many threads" true (bad (1024, 1));
        check_b "empty block" true (bad (0, 1)));
    t "missing kernel argument is a launch error" (fun () ->
        let d = Device.create () in
        let k =
          Kir.Lower.lower
            {
              kname = "nop";
              scalar_params = [ ("n", S32) ];
              array_params = [];
              shared_decls = [];
              local_decls = [];
              body = [ Let ("x", S32, Param "n") ];
            }
        in
        check_b "raises" true
          (try
             ignore (Sim.run d { Sim.kernel = k; grid = (1, 1); block = (32, 1); args = [] });
             false
           with Sim.Launch_error _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Timing behaviour (first-order sanity)                               *)
(* ------------------------------------------------------------------ *)

(* A latency-bound kernel: a chain of dependent global loads. *)
let chase_kernel =
  {
    kname = "chase";
    scalar_params = [];
    array_params = [ { aname = "A"; aspace = Global }; { aname = "O"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Mut ("acc", F32, f 0.0);
        for_ "t" (i 0) (i 16)
          [ Assign ("acc", v "acc" +: Ld ("A", (tid_x *: i 16) +: v "t")) ];
        Store ("O", tid_x, v "acc");
      ];
  }

let time_of ~grid ~block k =
  let d = Device.create () in
  let a = Device.alloc d 65536 and o = Device.alloc d 65536 in
  let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
  let launch = { Sim.kernel = ptx; grid; block; args = [ ("A", Sim.Buf a); ("O", Sim.Buf o) ] } in
  (Sim.run ~mode:(Sim.Timing { max_blocks = 8 }) d launch).cycles

let timing_tests =
  [
    t "more resident warps hide latency (TLP)" (fun () ->
        (* One warp per SM vs eight: 8x the work should cost much less
           than 8x the cycles, because the extra warps hide the global
           latency that leaves a single warp stalled. *)
        let t_one_warp = time_of ~grid:(16, 1) ~block:(32, 1) chase_kernel in
        let t_eight_warps = time_of ~grid:(16, 1) ~block:(256, 1) chase_kernel in
        check_b "sublinear in work" true (t_eight_warps < 6.0 *. t_one_warp));
    t "uncoalesced access is slower than coalesced" (fun () ->
        let mk stride name =
          {
            kname = name;
            scalar_params = [];
            array_params = [ { aname = "A"; aspace = Global }; { aname = "O"; aspace = Global } ];
            shared_decls = [];
            local_decls = [];
            body =
              [
                Mut ("acc", F32, f 0.0);
                for_ "t" (i 0) (i 8)
                  [
                    Assign
                      ("acc", v "acc" +: Ld ("A", (tid_x *: i stride) +: (v "t" *: i 64)));
                  ];
                Store ("O", tid_x, v "acc");
              ];
          }
        in
        let t_co = time_of ~grid:(4, 1) ~block:(64, 1) (mk 1 "co") in
        let t_un = time_of ~grid:(4, 1) ~block:(64, 1) (mk 7 "unco") in
        check_b "coalesced wins" true (t_co < t_un));
    t "simulated cycles scale roughly linearly with grid size" (fun () ->
        let t1 = time_of ~grid:(32, 1) ~block:(64, 1) chase_kernel in
        let t2 = time_of ~grid:(64, 1) ~block:(64, 1) chase_kernel in
        let ratio = t2 /. t1 in
        check_b "~2x" true (ratio > 1.6 && ratio < 2.4));
    t "timing stats are well-formed" (fun () ->
        let d = Device.create () in
        let a = Device.alloc d 65536 and o = Device.alloc d 65536 in
        let ptx = Ptx.Opt.run (Kir.Lower.lower chase_kernel) in
        let s =
          Sim.run ~mode:(Sim.Timing { max_blocks = 4 }) d
            { Sim.kernel = ptx; grid = (64, 1); block = (64, 1); args = [ ("A", Sim.Buf a); ("O", Sim.Buf o) ] }
        in
        check_b "cycles > 0" true (s.cycles > 0.0);
        check_b "time consistent" true
          (Float.abs (s.time_s -. (s.cycles /. Arch.clock_hz Arch.g80)) < 1e-12);
        check_i "total blocks" 64 s.total_blocks;
        check_b "blocks simulated <= assigned" true (s.blocks_simulated <= 4);
        check_b "warp instrs > 0" true (s.warp_instrs > 0));
  ]

let suite =
  [
    ("gpu.arch", arch_tests);
    ("gpu.device", device_tests);
    ("gpu.coalesce", coalesce_tests);
    ("gpu.exec", exec_tests);
    ("gpu.timing", timing_tests);
  ]

(* ------------------------------------------------------------------ *)
(* More timing behaviour: bank conflicts, constant cache, SFU          *)
(* ------------------------------------------------------------------ *)

(* A kernel whose shared accesses stride by [stride] words. *)
let shared_stride_kernel stride =
  {
    kname = Printf.sprintf "sh%d" stride;
    scalar_params = [];
    array_params = [ { aname = "A"; aspace = Global }; { aname = "O"; aspace = Global } ];
    shared_decls = [ ("s", 4096) ];
    local_decls = [];
    body =
      [
        Store ("s", tid_x *: i stride, Un (ToF, tid_x));
        Sync;
        Mut ("acc", F32, f 0.0);
        for_ "t" (i 0) (i 64) [ Assign ("acc", v "acc" +: Ld ("s", tid_x *: i stride)) ];
        Store ("O", tid_x, v "acc");
      ];
  }

let const_kernel divergent =
  {
    kname = "cst";
    scalar_params = [];
    array_params =
      [ { aname = "T"; aspace = Const }; { aname = "A"; aspace = Global }; { aname = "O"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Mut ("acc", F32, f 0.0);
        for_ "t" (i 0) (i 64)
          [
            Assign
              ("acc", v "acc" +: Ld ("T", if divergent then tid_x else v "t" %: i 16));
          ];
        Store ("O", tid_x, v "acc");
      ];
  }

let time_of2 ?(extra_const = false) ~grid ~block k =
  let d = Device.create () in
  let cbuf = Device.alloc_const d 64 in
  let a = Device.alloc d 65536 and o = Device.alloc d 65536 in
  let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
  let args =
    [ ("A", Sim.Buf a); ("O", Sim.Buf o) ]
    @ if extra_const then [ ("T", Sim.Buf cbuf) ] else []
  in
  (Sim.run ~mode:(Sim.Timing { max_blocks = 4 }) d { Sim.kernel = ptx; grid; block; args }).cycles

let timing2_tests =
  [
    t "shared-memory bank conflicts slow execution" (fun () ->
        (* Enough warps that the SM is issue-bound; a 16-way conflict
           multiplies the loads' issue occupancy. *)
        let t1 = time_of2 ~grid:(16, 1) ~block:(256, 1) (shared_stride_kernel 1) in
        let t16 = time_of2 ~grid:(16, 1) ~block:(256, 1) (shared_stride_kernel 16) in
        check_b "16-way conflict much slower" true (t16 > 3.0 *. t1));
    t "divergent constant-cache addresses serialize" (fun () ->
        let uni = time_of2 ~extra_const:true ~grid:(16, 1) ~block:(64, 1) (const_kernel false) in
        let div = time_of2 ~extra_const:true ~grid:(16, 1) ~block:(64, 1) (const_kernel true) in
        check_b "divergent slower" true (div > 2.0 *. uni));
    t "SFU-heavy code is slower than equivalent MAD code" (fun () ->
        let mk use_sfu =
          {
            kname = "sfu";
            scalar_params = [];
            array_params = [ { aname = "A"; aspace = Global }; { aname = "O"; aspace = Global } ];
            shared_decls = [];
            local_decls = [];
            body =
              [
                Mut ("acc", F32, f 1.0);
                for_ "t" (i 0) (i 64)
                  [
                    Assign
                      ( "acc",
                        if use_sfu then Un (Rsqrt, v "acc" +: f 1.0)
                        else (v "acc" *: f 0.5) +: f 1.0 );
                  ];
                Store ("O", tid_x, v "acc");
              ];
          }
        in
        let t_mad = time_of2 ~grid:(16, 1) ~block:(256, 1) (mk false) in
        let t_sfu = time_of2 ~grid:(16, 1) ~block:(256, 1) (mk true) in
        check_b "sfu throughput lower" true (t_sfu > 1.5 *. t_mad));
    t "occupancy cliff is visible in time (the paper's 10 vs 11 regs story)" (fun () ->
        (* Same kernel launched with block sizes straddling the
           768-thread residency boundary: 256-thread blocks allow 3
           resident blocks (24 warps); 384-thread blocks only 2
           (24 warps) — but 512-thread blocks only 1 (16 warps), which
           hurts a latency-bound kernel. *)
        let t384 = time_of ~grid:(16, 1) ~block:(384, 1) chase_kernel in
        let t512 = time_of ~grid:(12, 1) ~block:(512, 1) chase_kernel in
        (* normalize per thread: 384*16 vs 512*12 threads = equal work *)
        check_b "fewer resident warps is no faster" true (t512 >= t384 *. 0.9));
  ]

let suite = suite @ [ ("gpu.timing2", timing2_tests) ]
