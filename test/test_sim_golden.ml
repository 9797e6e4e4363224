(* Golden-equivalence suite for the compiled simulator core.

   The simulator's decode/schedule/memory paths were rebuilt for
   throughput; the timing model and statistics must be bit-identical.
   Two defenses:

   - Golden digests: for four applications x (default + one non-default
     config) x (functional + timing), every headline statistic and an
     md5 of the full per-site counter rendering were captured from the
     pre-refactor interpreter core at the apps' smoke shapes.
     Each row is checked under both the ready-heap scheduler and the
     reference linear-scan scheduler.  (GPUOPT_GOLDEN_CAPTURE reprints
     the table after a deliberate shape change, see below.)

   - Differential property: random race-free KIR kernels must produce
     bit-identical output buffers under [Kir.Interp] and under lowering
     + PTX optimization + [Gpu.Sim] in functional mode. *)

open Kir.Ast

let t name f = Alcotest.test_case name `Quick f
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Renders every observable statistic, including the per-site memory
   counters.  The digest table below was captured from this exact
   format; do not change it without re-capturing. *)
let render_stats (s : Gpu.Sim.stats) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "cycles=%.17g warp_instrs=%d tx=%d bytes=%d conflict=%d blocks=%d/%d occ=%d"
    s.cycles s.warp_instrs s.gmem_transactions s.gmem_bytes s.bank_conflict_extra
    s.blocks_simulated s.total_blocks s.occupancy.blocks_per_sm;
  List.iter
    (fun (sc : Gpu.Sim.site_counter) ->
      Printf.bprintf b "; %s[%d]%s e=%d tx=%d by=%d rp=%d" sc.sc_label sc.sc_index
        (match sc.sc_space with
        | Ptx.Instr.Global -> "G"
        | Ptx.Instr.Shared -> "S"
        | Ptx.Instr.Const -> "C"
        | Ptx.Instr.Local -> "L")
        sc.sc_execs sc.sc_tx sc.sc_bytes sc.sc_replays)
    s.site_counters;
  Buffer.contents b

(* (app, config ("" = default), mode, cycles, warp_instrs,
    gmem_transactions, gmem_bytes, bank_conflict_extra,
    blocks_simulated, md5 of [render_stats]). *)
let golden : (string * string * string * float * int * int * int * int * int * string) list =
  [
    ("matmul", "", "functional", 0., 115072, 69632, 4456448, 0, 64, "1d5171063097d53f7fdc661a7b97b9e1");
    ("matmul", "", "timing", 67826., 7192, 4352, 278528, 0, 4, "0079f22954a88882a004d5bf5a8a249a");
    ("matmul", "16x16/1x4/uC/pf/sp", "functional", 0., 39456, 9856, 630784, 0, 4, "9d4da5a59f0950d29e3ad77a9aa669a4");
    ("matmul", "16x16/1x4/uC/pf/sp", "timing", 49876., 9864, 2464, 157696, 0, 1, "3ad654f8d7f83f4df208ddcf16877bf4");
    ("cp", "", "functional", 0., 38912, 256, 16384, 0, 128, "bb6d9b1d688749ea33fb8da1674dab10");
    ("cp", "", "timing", 11324., 2432, 16, 1024, 0, 8, "6d0b1f11d8b5709a064ee99d34eb0c58");
    ("cp", "b16x16/t8/unco", "functional", 0., 12592, 4096, 262144, 0, 2, "25a394240dc391f22a62a7a9272171cf");
    ("cp", "b16x16/t8/unco", "timing", 37472., 6296, 2048, 131072, 0, 1, "7fa55f09f60361a7c1c4b5b6c21f996d");
    ("sad", "", "functional", 0., 11840, 2592, 165888, 1536, 32, "829fd9502c1e7fa5fdb8002a87373245");
    ("sad", "", "timing", 8646., 740, 162, 10368, 64, 2, "0160f3e7e4beabf605c6cf1202acc67b");
    ("sad", "tpb384/t4/uv2/uy1/ux1", "functional", 0., 46016, 3072, 196608, 6144, 32, "4671d5a4d68df51a8920dce31120a0b5");
    ("sad", "tpb384/t4/uv2/uy1/ux1", "timing", 45688., 2876, 192, 12288, 256, 2, "468d389ace1fd10966458cff5e851c83");
    ("mri", "", "functional", 0., 23209, 1050, 67200, 0, 53, "ef7f73af6dd842c4cd41eef22f9c55f0");
    ("mri", "", "timing", 8922., 1768, 80, 5120, 0, 4, "665fc46bc2b1dcf70a10c1b3401f0380");
    ("mri", "tpb256/u16/w7", "functional", 0., 22489, 1050, 67200, 0, 2, "07ffd7d20048b493319d5e64493be718");
    ("mri", "tpb256/u16/w7", "timing", 59154., 11992, 560, 35840, 0, 1, "2dcb4e574b006cfdba15f52e25360720");
  ]

(* Goldens run at the apps' smoke shapes — the pre-refactor lint
   shapes the table was originally captured at, and cheap enough that
   functional mode (all blocks) stays fast.  Lint itself now runs at
   the reduced race shapes; the @check alias's `lint --crossval` covers
   that path. *)
let stats_of ~scheduler app config mode_name : Gpu.Sim.stats =
  let wb_of ?config () =
    match app with
    | "matmul" -> Apps.Matmul.workbench ?config Apps.Matmul.smoke
    | "cp" -> Apps.Cp.workbench ?config Apps.Cp.smoke
    | "sad" -> Apps.Sad.workbench ?config Apps.Sad.smoke
    | "mri" -> Apps.Mri_fhd.workbench ?config Apps.Mri_fhd.smoke
    | _ -> failwith ("no smoke workbench for " ^ app)
  in
  let config_opt = match config with "" -> None | d -> Some d in
  match wb_of ?config:config_opt () with
  | Error msg -> failwith (app ^ " " ^ config ^ ": " ^ msg)
  | Ok wb ->
    let launch =
      {
        Gpu.Sim.kernel = wb.Apps.Workbench.wb_compiled.Tuner.Pipeline.ptx;
        grid = wb.wb_grid;
        block = wb.wb_block;
        args = wb.wb_args;
      }
    in
    let mode =
      match mode_name with
      | "functional" -> Gpu.Sim.Functional
      | _ -> Gpu.Sim.Timing { max_blocks = Gpu.Sim.default_max_blocks }
    in
    Gpu.Sim.run ~scheduler ~mode wb.wb_dev launch

(* With GPUOPT_GOLDEN_CAPTURE set, each heap-scheduler case prints its
   row in the table format above instead of asserting — the supported
   way to re-capture after a deliberate workbench-shape change. *)
let capture = Sys.getenv_opt "GPUOPT_GOLDEN_CAPTURE" <> None

let golden_tests =
  List.concat_map
    (fun (app, config, mode, cycles, wi, tx, bytes, conflict, blocks, md5) ->
      List.map
        (fun (sched_name, scheduler) ->
          let cfg = if config = "" then "default" else config in
          t (Printf.sprintf "golden %s/%s %s (%s)" app cfg mode sched_name) (fun () ->
              let s = stats_of ~scheduler app config mode in
              if capture then (
                if sched_name = "heap" then
                  Printf.printf "    (%S, %S, %S, %.17g, %d, %d, %d, %d, %d, %S);\n%!" app
                    config mode s.Gpu.Sim.cycles s.warp_instrs s.gmem_transactions
                    s.gmem_bytes s.bank_conflict_extra s.blocks_simulated
                    (Digest.to_hex (Digest.string (render_stats s))))
              else (
                Alcotest.(check (float 0.0)) "cycles" cycles s.Gpu.Sim.cycles;
                check_i "warp_instrs" wi s.warp_instrs;
                check_i "gmem_transactions" tx s.gmem_transactions;
                check_i "gmem_bytes" bytes s.gmem_bytes;
                check_i "bank_conflict_extra" conflict s.bank_conflict_extra;
                check_i "blocks_simulated" blocks s.blocks_simulated;
                Alcotest.(check string) "digest" md5
                  (Digest.to_hex (Digest.string (render_stats s))))))
        [ ("heap", Gpu.Sim.Heap); ("scan", Gpu.Sim.Scan) ])
    golden

(* ------------------------------------------------------------------ *)
(* Random-kernel differential property                                 *)
(* ------------------------------------------------------------------ *)

(* Random race-free kernels: every thread writes only O[gid], so the
   output is deterministic regardless of warp interleaving.  Value
   expressions stay in F32 and are kept finite: division, sqrt, rsqrt
   and rcp are guarded so arithmetic results are reproducible across
   expression shapes.  NaN comparison semantics no longer need the
   guard: the simulator's float Setp historically used [Float.compare]
   (a total order sorting NaN below everything) while [Kir.Interp] used
   IEEE comparisons where NaN compares false — that divergence is fixed
   (the sim's [ftest] is IEEE now) and pinned by the dedicated NaN
   regression below.  Index expressions are structural so every access
   is in bounds. *)

let words = 256

let rec gen_f rng depth : expr =
  if depth = 0 then gen_leaf rng
  else
    match Util.Rng.int rng 10 with
    | 0 -> Bin (Add, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 1 -> Bin (Sub, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 2 -> Bin (Mul, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 3 ->
      (* Guarded: |denominator| >= 1/2, so the quotient stays finite. *)
      Bin (Div, gen_f rng (depth - 1), Bin (Max, Un (Abs, gen_f rng (depth - 1)), f 0.5))
    | 4 -> Bin (Min, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 5 -> Bin (Max, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 6 -> (
      let a = gen_f rng (depth - 1) in
      match Util.Rng.int rng 7 with
      | 0 -> Un (Neg, a)
      | 1 -> Un (Abs, a)
      | 2 -> Un (Sqrt, Un (Abs, a))
      | 3 -> Un (Rsqrt, Bin (Max, Un (Abs, a), f 0.5))
      | 4 -> Un (Rcp, Bin (Max, Un (Abs, a), f 0.5))
      | 5 -> Un (Sin, a)
      | _ -> Un (Cos, a))
    | 7 ->
      Select
        ( Bin (Lt, gen_f rng (depth - 1), gen_f rng (depth - 1)),
          gen_f rng (depth - 1),
          gen_f rng (depth - 1) )
    | _ -> gen_leaf rng

and gen_leaf rng : expr =
  match Util.Rng.int rng 6 with
  | 0 -> v "x0"
  | 1 -> v "y"
  | 2 -> Param "alpha"
  | 3 -> f (Util.Float32.round (Util.Rng.float_range rng (-4.0) 4.0))
  | 4 -> Un (ToF, tid_x)
  | _ -> Un (ToF, v "g")

(* [threads] is the block width the kernel's shared tile is sized for
   (the launch's block must be [threads] x 1). *)
let gen_kernel ?(threads = 32) rng : kernel =
  let use_shared = Util.Rng.int rng 2 = 0 in
  let use_loop = Util.Rng.int rng 2 = 0 in
  let diverge = Util.Rng.int rng 2 = 0 in
  let y_def =
    if use_shared then
      [
        Store ("sh", tid_x, v "x0");
        Sync;
        Let ("y", F32, Ld ("sh", (tid_x +: i 1) %: i threads));
      ]
    else [ Let ("y", F32, v "x0" *: f 2.0) ]
  in
  let acc =
    if use_loop then
      [
        Mut ("acc", F32, gen_f rng 2);
        for_ "j" (i 0) (i (2 + Util.Rng.int rng 3))
          [ Assign ("acc", v "acc" +: (gen_f rng 2 *: Un (ToF, v "j"))) ];
        Let ("r", F32, v "acc");
      ]
    else [ Let ("r", F32, gen_f rng 3) ]
  in
  let store =
    if diverge then
      [
        If
          ( Bin (Rem, v "g", i 2) =: i 0,
            [ Store ("O", v "g", v "r") ],
            [ Store ("O", v "g", v "r" +: f 1.0) ] );
      ]
    else [ Store ("O", v "g", v "r") ]
  in
  {
    kname = "rand";
    scalar_params = [ ("alpha", F32); ("n", S32) ];
    array_params = [ { aname = "O"; aspace = Global }; { aname = "A"; aspace = Global } ];
    shared_decls = (if use_shared then [ ("sh", threads) ] else []);
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        (* Guard on the scalar parameter so Param-in-predicate paths
           are exercised; n always covers every launched thread. *)
        If
          ( v "g" <: Param "n",
            [ Let ("x0", F32, Ld ("A", v "g")) ] @ y_def @ acc @ store,
            [] );
      ];
  }

let sim_matches_interp (k : kernel) ~(input : float array) ~(alpha : float) : bool =
  let run use_interp =
    let d = Gpu.Device.create () in
    let out = Gpu.Device.alloc d words in
    let a = Gpu.Device.alloc d words in
    Gpu.Device.to_device d a input;
    let args =
      [
        ("O", Gpu.Sim.Buf out);
        ("A", Gpu.Sim.Buf a);
        ("alpha", Gpu.Sim.F alpha);
        ("n", Gpu.Sim.I words);
      ]
    in
    let grid = (2, 1) and block = (32, 1) in
    if use_interp then Kir.Interp.run d k ~grid ~block ~args
    else begin
      let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
      ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional d { Gpu.Sim.kernel = ptx; grid; block; args })
    end;
    Gpu.Device.of_device d out
  in
  Array.for_all2 (fun x y -> Util.Float32.equal_bits x y) (run true) (run false)

(* ------------------------------------------------------------------ *)
(* NaN setp regression                                                 *)
(* ------------------------------------------------------------------ *)

(* The caveat formerly documented above, promoted to a test: float
   comparisons against NaN must follow IEEE unordered semantics (every
   comparison false except ne) in BOTH execution engines, bit for bit.
   Each thread compares its element against another (the lane-0 pair is
   NaN vs a normal) under all six operators, plus Min/Max, which are
   NaN-discarding on both sides. *)
let nan_setp_kernel : kernel =
  let cmps = [ Eq; Ne; Lt; Le; Gt; Ge ] in
  let out idx value = Store ("O", (v "g" *: i 8) +: i idx, value) in
  let store_cmp idx op = out idx (Select (Bin (op, v "x0", v "y"), f 1.0, f 0.0)) in
  {
    kname = "nan_setp";
    scalar_params = [ ("n", S32) ];
    array_params = [ { aname = "O"; aspace = Global }; { aname = "A"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        If
          ( v "g" <: Param "n",
            [
              Let ("x0", F32, Ld ("A", v "g"));
              Let ("y", F32, Ld ("A", Bin (Rem, v "g" +: i 7, Param "n")));
            ]
            @ List.mapi store_cmp cmps
            @ [ out 6 (Bin (Min, v "x0", v "y")); out 7 (Bin (Max, v "x0", v "y")) ],
            [] );
      ];
  }

let nan_setp_tests =
  [
    t "float setp on NaN: sim is IEEE and matches Kir.Interp (regression)" (fun () ->
        let k = nan_setp_kernel in
        Kir.Typecheck.check k;
        let n = 32 in
        let input =
          Array.init n (fun idx ->
              match idx mod 8 with
              | 0 -> Float.nan
              | 1 -> Float.infinity
              | 2 -> Float.neg_infinity
              | 3 -> 0.0
              | 4 -> -0.0
              | 5 -> 1.5
              | 6 -> -2.25
              | _ -> Util.Float32.round 3.7)
        in
        let run use_interp =
          let d = Gpu.Device.create () in
          let out = Gpu.Device.alloc d (n * 8) in
          let a = Gpu.Device.alloc d n in
          Gpu.Device.to_device d a input;
          let args = [ ("O", Gpu.Sim.Buf out); ("A", Gpu.Sim.Buf a); ("n", Gpu.Sim.I n) ] in
          let grid = (1, 1) and block = (n, 1) in
          if use_interp then Kir.Interp.run d k ~grid ~block ~args
          else begin
            let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
            ignore
              (Gpu.Sim.run ~mode:Gpu.Sim.Functional d { Gpu.Sim.kernel = ptx; grid; block; args })
          end;
          Gpu.Device.of_device d out
        in
        let interp = run true and sim = run false in
        (* Lane 0 is NaN vs 3.7: IEEE truth, spelled out. *)
        let expected0 = [| 0.; 1.; 0.; 0.; 0.; 0.; Util.Float32.round 3.7; Util.Float32.round 3.7 |] in
        Array.iteri
          (fun idx x ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "IEEE truth for NaN lane, O[%d]" idx)
              x sim.(idx))
          expected0;
        Array.iteri
          (fun idx x ->
            if not (Util.Float32.equal_bits x sim.(idx)) then
              Alcotest.failf "engines disagree at O[%d]: interp %h, sim %h" idx x sim.(idx))
          interp);
  ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sim functional output matches Kir.Interp on random kernels (qcheck)"
         ~count:60
         QCheck.(int_range 0 100_000)
         (fun seed ->
           let rng = Util.Rng.create seed in
           let k = gen_kernel rng in
           Kir.Typecheck.check k;
           let input =
             Array.init words (fun _ -> Util.Float32.round (Util.Rng.float_range rng (-2.0) 2.0))
           in
           let alpha = Util.Float32.round (Util.Rng.float_range rng (-2.0) 2.0) in
           sim_matches_interp k ~input ~alpha));
  ]

(* ------------------------------------------------------------------ *)
(* Heap scheduler = scan scheduler on generated launches               *)
(* ------------------------------------------------------------------ *)

(* The heap keys each queued warp by its exact earliest-issue cycle,
   computed when the warp is pushed.  The golden rows pin that on the
   four apps; this property pins it on random kernels: barriers over
   blocks of one to four warps, loops and divergence, in timing mode
   with two to ten blocks on the measured SM, several resident at once
   and, on many draws, more than fit (so blocks retire and new ones are
   admitted), on every registry machine.  Every statistic must render
   identically under both schedulers. *)
let heap_matches_scan seed : bool =
  let rng = Util.Rng.create seed in
  let threads = 32 * (1 + Util.Rng.int rng 4) in
  let k = gen_kernel ~threads rng in
  Kir.Typecheck.check k;
  let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
  let per_sm = 2 + Util.Rng.int rng 9 in
  let values = Array.init 64 (fun _ -> Util.Float32.round (Util.Rng.float_range rng (-2.0) 2.0)) in
  List.for_all
    (fun (arch : Gpu.Arch.t) ->
      let blocks = arch.limits.num_sms * per_sm in
      let n = blocks * threads in
      let render scheduler =
        let d = Gpu.Device.create () in
        let out = Gpu.Device.alloc d n and a = Gpu.Device.alloc d n in
        Gpu.Device.to_device d a (Array.init n (fun j -> values.(j mod 64)));
        let args =
          [ ("O", Gpu.Sim.Buf out); ("A", Gpu.Sim.Buf a); ("alpha", Gpu.Sim.F 0.5); ("n", Gpu.Sim.I n) ]
        in
        render_stats
          (Gpu.Sim.run ~arch ~scheduler
             ~mode:(Gpu.Sim.Timing { max_blocks = Gpu.Sim.default_max_blocks })
             d
             { Gpu.Sim.kernel = ptx; grid = (blocks, 1); block = (threads, 1); args })
      in
      render Gpu.Sim.Heap = render Gpu.Sim.Scan)
    Gpu.Arch.archs

(* ------------------------------------------------------------------ *)
(* Binary32 rounding on special values                                 *)
(* ------------------------------------------------------------------ *)

(* The simulator rounds through a float32 cell, [Util.Float32] through
   the [Int32] bit round-trip; the two must agree bit for bit exactly
   where rounding is delicate, which [gen_kernel]'s finite, small
   values never reach.  One row (x, y, z, k) per thread feeds NaN
   payloads, signed zeros, f32 subnormals, results past FLT_MAX and
   round-half-to-even ties through add, sub, mul, div, mad, sqrt,
   rsqrt, rcp and int->float conversion.  A row holds at most one NaN
   operand, so no expected bit pattern depends on which of two NaNs an
   operation propagates. *)
let f32_results = 9

let f32_special_kernel : kernel =
  let out j value = Store ("O", (v "g" *: i f32_results) +: i j, value) in
  let arr name = { aname = name; aspace = Global } in
  {
    kname = "f32_special";
    scalar_params = [ ("n", S32) ];
    array_params = [ arr "O"; arr "X"; arr "Y"; arr "Z"; arr "K" ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        If
          ( v "g" <: Param "n",
            [
              Let ("x", F32, Ld ("X", v "g"));
              Let ("y", F32, Ld ("Y", v "g"));
              Let ("z", F32, Ld ("Z", v "g"));
              Let ("k", S32, Un (ToI, Ld ("K", v "g")));
              out 0 (v "x" +: v "y");
              out 1 (v "x" -: v "y");
              out 2 (v "x" *: v "y");
              out 3 (v "x" /: v "y");
              out 4 ((v "x" *: v "y") +: v "z");
              out 5 (Un (Sqrt, v "x"));
              out 6 (Un (Rsqrt, v "x"));
              out 7 (Un (Rcp, v "x"));
              out 8 (Un (ToF, v "k"));
            ],
            [] );
      ];
  }

let f32_special_rows : (float * float * float * int) list =
  let bits = Int32.float_of_bits and p2 = Float.ldexp 1.0 in
  let nan_payload = bits 0x7fc12345l and neg_nan = bits 0xffc00001l in
  let snan = Int64.float_of_bits 0x7ff0000000000001L in
  let tiny = p2 (-149) and flt_max = bits 0x7f7fffffl in
  let max_sub = bits 0x007fffffl in
  [
    (nan_payload, 1.5, 0.0, 0);
    (1.5, neg_nan, 2.0, 16777217);
    (2.0, 3.0, nan_payload, -16777217);
    (snan, 1.0, 1.0, 16777219);
    (0.0, -0.0, -0.0, 16777221);
    (-0.0, 0.0, 0.0, 2147483647);
    (-0.0, -0.0, 0.0, -2147483647);
    (tiny, 0.5, tiny, 33554435);
    (3.0 *. tiny, 0.5, -.tiny, 1);
    (max_sub, tiny, -.max_sub, -1);
    (max_sub, 0.5, 1.0, 3);
    (tiny, tiny, 0.0, 7);
    (flt_max, flt_max, -.flt_max, 5);
    (flt_max, p2 103, 0.0, 9);
    (flt_max, p2 102, 1.0, 11);
    (-.flt_max, p2 103, -.flt_max, 13);
    (flt_max, 0.5, flt_max, 15);
    (1.0, p2 (-24), 0.0, 17);
    (1.0 +. p2 (-23), p2 (-24), 1.0, 19);
    (1.0 +. p2 (-23), -.p2 (-24), -1.0, 21);
    (1.0 /. 3.0, 3.0, -1.0, 23);
    (-1.0, 0.0, Float.infinity, 25);
    (Float.infinity, Float.neg_infinity, 1.0, 27);
    (Float.infinity, 0.0, 1.0, 29);
    (p2 (-126), p2 (-1), 0.0, 31);
    (p2 127, 4.0, -.p2 127, 33);
    (p2 (-140), p2 (-10), p2 (-149), 35);
    (0.1, 0.2, 0.3, 37);
  ]

let f32_special_tests =
  [
    t "binary32 rounding on special values: sim equals Util.Float32 bitwise" (fun () ->
        let k = f32_special_kernel in
        Kir.Typecheck.check k;
        let n = List.length f32_special_rows in
        let d = Gpu.Device.create () in
        let buf () = Gpu.Device.alloc d n in
        let out = Gpu.Device.alloc d (n * f32_results) in
        let xs = buf () and ys = buf () and zs = buf () and ks = buf () in
        let column sel = Array.of_list (List.map sel f32_special_rows) in
        Gpu.Device.to_device d xs (column (fun (x, _, _, _) -> x));
        Gpu.Device.to_device d ys (column (fun (_, y, _, _) -> y));
        Gpu.Device.to_device d zs (column (fun (_, _, z, _) -> z));
        Gpu.Device.to_device d ks (column (fun (_, _, _, k) -> float_of_int k));
        let args =
          [
            ("O", Gpu.Sim.Buf out);
            ("X", Gpu.Sim.Buf xs);
            ("Y", Gpu.Sim.Buf ys);
            ("Z", Gpu.Sim.Buf zs);
            ("K", Gpu.Sim.Buf ks);
            ("n", Gpu.Sim.I n);
          ]
        in
        let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
        ignore
          (Gpu.Sim.run ~mode:Gpu.Sim.Functional d
             { Gpu.Sim.kernel = ptx; grid = (1, 1); block = (32, 1); args });
        let sim = Gpu.Device.of_device d out in
        let module F = Util.Float32 in
        let names = [| "add"; "sub"; "mul"; "div"; "mad"; "sqrt"; "rsqrt"; "rcp"; "i2f" |] in
        List.iteri
          (fun row (x, y, z, ki) ->
            let expected =
              [| F.add x y; F.sub x y; F.mul x y; F.div x y; F.mad x y z; F.sqrt x; F.rsqrt x; F.rcp x;
                 F.of_int ki |]
            in
            Array.iteri
              (fun j e ->
                let got = sim.((row * f32_results) + j) in
                if Int64.bits_of_float got <> Int64.bits_of_float e then
                  Alcotest.failf "row %d %s(%h, %h, %h, %d): sim %h (%Lx), Util.Float32 %h (%Lx)"
                    row names.(j) x y z ki got (Int64.bits_of_float got) e (Int64.bits_of_float e))
              expected)
          f32_special_rows);
  ]

let heap_scan_tests =
  [
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      (QCheck.Test.make ~name:"heap scheduler equals scan on generated timing launches (qcheck)"
         ~count:100
         QCheck.(int_range 0 100_000)
         heap_matches_scan);
  ]

let suite =
  [
    ( "sim-golden",
      golden_tests @ nan_setp_tests @ f32_special_tests @ heap_scan_tests @ qcheck_tests );
  ]
