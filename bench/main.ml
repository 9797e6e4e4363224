(* Exhibit harness: regenerates every table and figure of the paper's
   evaluation (table1-4, fig3-6, ablation), the per-pass pipeline trace
   and the static lints, and two exhibits beyond the paper: rule
   discovery (superopt) and the model-driven race (prune), which also
   write a BENCH_<name>.json.  The daemon has no exhibit: the serve and
   store tests check it and perfbench's warm-serve workload times it.

   Usage:
     bench/main.exe                 -- run everything
     bench/main.exe table1 fig5 ... -- run selected experiments
     bench/main.exe --jobs 4 ...    -- parallel candidate measurement
                                       (same results for any N)

   Shape checks (the qualitative claims the reproduction must satisfy)
   are printed as CHECK lines with pass/fail.  Performance is measured
   by perfbench/, not here; bench/counters.sh gates its
   host-independent counters.

   Exit status, as gpuopt's: 0 when every CHECK passed, 1 when one
   printed [FAIL], 124 on a wrong command line (an unknown experiment,
   a bad --jobs). *)

let printf = Printf.printf

let section title =
  printf "\n==========================================================\n";
  printf "%s\n" title;
  printf "==========================================================\n"

let failed_checks = ref 0

let check name ok =
  printf "CHECK %-60s %s\n" name (if ok then "[pass]" else "[FAIL]");
  if not ok then incr failed_checks

(* Every BENCH_*.json goes through the library's one JSON encoder. *)
let write_json file (v : Util.Json.t) =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Util.Json.to_string v);
      output_char oc '\n');
  printf "wrote %s\n" file

(* Measurement worker domains; set from --jobs before any search is
   forced.  The search results are identical for every value. *)
let jobs = ref (Util.Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Shared search results (computed once, reused by several exhibits)   *)
(* ------------------------------------------------------------------ *)

let matmul_n = Apps.Matmul.bench.n

let timed_search name cands =
  let t0 = Unix.gettimeofday () in
  let r = Tuner.Search.run ~jobs:!jobs ~app_name:name cands in
  printf "(%s search: %d configs in %.1fs host time, %d jobs)\n%!" name (r.space_size + r.invalid)
    (Unix.gettimeofday () -. t0)
    !jobs;
  r

(* Each search comes from the app registry's bench-scale candidate
   builder (matmul at half the paper's extent, so the exhaustive pass
   stays tractable on a host CPU). *)
let registry name = Option.get (Apps.Registry.find name)
let result_of name = lazy (let e = registry name in timed_search e.display (e.bench_candidates ()))
let matmul_result = result_of "matmul"
let cp_result = result_of "cp"
let sad_result = result_of "sad"
let mri_result = result_of "mri"

let all_results () =
  [ Lazy.force matmul_result; Lazy.force mri_result; Lazy.force cp_result; Lazy.force sad_result ]

(* ------------------------------------------------------------------ *)
(* Table 1: properties of GeForce 8800 memories                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Properties of GeForce 8800 Memories (model parameters)";
  let rows =
    List.map
      (fun (m : Gpu.Arch.memory_row) ->
        [ m.mem_name; m.location; m.size; m.latency; (if m.read_only then "yes" else "no") ])
      Gpu.Arch.memories
  in
  print_string (Tuner.Report.table [ "Memory"; "Location"; "Size"; "Latency"; "RO" ] rows);
  printf "\nSimulator latency/bandwidth parameters:\n";
  let l = Gpu.Arch.g80.latencies in
  printf "  issue %d cy/warp, ALU RAW %d cy, SFU %d cy (issue %d), shared %d cy,\n" l.issue l.alu
    l.sfu l.sfu_issue l.shared;
  printf "  global %d cy + channel (64B tx / %d cy = %.1f B/cy/SM; %.1f GB/s device)\n" l.global
    l.coalesced_tx
    (Gpu.Arch.bytes_per_cycle_per_sm Gpu.Arch.g80)
    Gpu.Arch.g80.Gpu.Arch.global_bandwidth_gbs

(* ------------------------------------------------------------------ *)
(* Table 2: constraints                                                *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: Constraints of GeForce 8800 and CUDA";
  let l = Gpu.Arch.g80.Gpu.Arch.limits in
  print_string
    (Tuner.Report.table
       [ "Resource or Configuration Parameter"; "Limit" ]
       [
         [ "Threads per SM"; Printf.sprintf "%d threads" l.max_threads_per_sm ];
         [ "Thread Blocks per SM"; Printf.sprintf "%d blocks" l.max_blocks_per_sm ];
         [ "32-bit Registers per SM"; Printf.sprintf "%d registers" l.regs_per_sm ];
         [ "Shared Memory per SM"; Printf.sprintf "%d bytes" l.smem_per_sm ];
         [ "Threads per Thread Block"; Printf.sprintf "%d threads" l.max_threads_per_block ];
       ]);
  (* The paper's worked occupancy example (section 2.2). *)
  let o1 = Gpu.Arch.occupancy ~threads_per_block:256 ~regs_per_thread:10 ~smem_per_block:4096 () in
  let o2 = Gpu.Arch.occupancy ~threads_per_block:256 ~regs_per_thread:11 ~smem_per_block:4096 () in
  printf "\nWorked example (sec 2.2): 256 thr/blk, 4KB smem: 10 regs -> %d blocks; 11 regs -> %d blocks\n"
    o1.blocks_per_sm o2.blocks_per_sm;
  check "occupancy cliff: 10 regs -> 3 blocks, 11 regs -> 2 blocks"
    (o1.blocks_per_sm = 3 && o2.blocks_per_sm = 2)

(* ------------------------------------------------------------------ *)
(* Figure 3: matmul performance across the abbreviated space           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section
    (Printf.sprintf
       "Figure 3: Matrix Multiplication performance (N=%d, abbreviated space: no spill)" matmul_n);
  let r = Lazy.force matmul_result in
  let no_spill =
    List.filter
      (fun (m : Tuner.Search.measured) -> List.assoc "spill" m.cand.params = "false")
      r.exhaustive
  in
  let rows =
    List.map
      (fun (m : Tuner.Search.measured) ->
        [
          m.cand.desc;
          string_of_int m.cand.resource.regs_per_thread;
          string_of_int m.cand.occupancy.blocks_per_sm;
          Printf.sprintf "%.0f" m.cand.profile.instr;
          Printf.sprintf "%.4f" (m.time_s *. 1000.0);
        ])
      no_spill
  in
  print_string (Tuner.Report.table [ "Config"; "Regs"; "B_SM"; "Instr"; "Time (ms)" ] rows);
  let time_of pred =
    List.filter_map
      (fun (m : Tuner.Search.measured) -> if pred m.cand then Some m.time_s else None)
      no_spill
  in
  let t8 = time_of (fun (c : Tuner.Candidate.t) -> List.assoc "tile" c.params = "8x8") in
  let t16 = time_of (fun (c : Tuner.Candidate.t) -> List.assoc "tile" c.params = "16x16") in
  let best8 = List.fold_left Float.min Float.infinity t8 in
  let worst16 = List.fold_left Float.max 0.0 t16 in
  check "every 16x16 configuration outperforms every 8x8 configuration" (worst16 < best8);
  let best = r.best.cand in
  printf "optimum: %s (%.4f ms)\n" best.desc (r.best.time_s *. 1000.0);
  check "optimum is 16x16 / 1x4 / complete unroll (paper's result)"
    (List.assoc "tile" best.params = "16x16"
    && List.assoc "rect" best.params = "1x4"
    && List.assoc "unroll" best.params = "complete");
  (* Paper sec 3.2: the optimum runs a single 256-thread block per SM.
     Our register allocator is leaner than ptxas 1.0, so the same
     configuration fits one more block here; the qualitative claim is
     that the winner runs at *low* occupancy despite the barrier. *)
  check "optimum runs at low occupancy (<= 2 blocks/SM; paper: 1)"
    (best.occupancy.blocks_per_sm <= 2)

(* ------------------------------------------------------------------ *)
(* Figure 4: SAD full optimization space                               *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: SAD optimization space (time vs threads per block)";
  let r = Lazy.force sad_result in
  let pts =
    List.map
      (fun (m : Tuner.Search.measured) ->
        (float_of_int m.cand.threads_per_block, m.time_s *. 1000.0))
      r.exhaustive
  in
  print_string
    (Tuner.Report.series_plot ~x_name:"threads per thread block" ~y_name:"time (ms)"
       [ ("configuration", pts) ]);
  (* Per-tpb spread, like the paper's many crossing lines. *)
  let tpbs = List.sort_uniq compare (List.map (fun (x, _) -> int_of_float x) pts) in
  let rows =
    List.map
      (fun tpb ->
        let ts = List.filter_map (fun (x, y) -> if int_of_float x = tpb then Some y else None) pts in
        [
          string_of_int tpb;
          string_of_int (List.length ts);
          Printf.sprintf "%.3f" (List.fold_left Float.min Float.infinity ts);
          Printf.sprintf "%.3f" (List.fold_left Float.max 0.0 ts);
        ])
      tpbs
  in
  print_string (Tuner.Report.table [ "Threads/block"; "Configs"; "Min ms"; "Max ms" ] rows);
  printf "space: %d valid configurations (+%d invalid)\n" r.space_size r.invalid;
  printf "optimum: %s (%.3f ms)\n" r.best.cand.desc (r.best.time_s *. 1000.0);
  (* The paper's point: the response is complex — per-tpb minima are
     not monotonic and the best tpb is in the interior. *)
  let minima =
    List.map
      (fun tpb ->
        List.fold_left Float.min Float.infinity
          (List.filter_map (fun (x, y) -> if int_of_float x = tpb then Some y else None) pts))
      tpbs
  in
  let sorted = List.sort compare minima in
  check "performance responds non-monotonically to threads/block"
    (minima <> sorted && minima <> List.rev sorted)

(* ------------------------------------------------------------------ *)
(* Figure 5: CP metrics versus performance                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: CP metrics versus performance (16x8 blocks, coalesced, tiling sweep)";
  let r = Lazy.force cp_result in
  let sweep =
    List.filter
      (fun (m : Tuner.Search.measured) ->
        List.assoc "block" m.cand.params = "16x8" && List.assoc "coalesced" m.cand.params = "true")
      r.exhaustive
  in
  let sweep =
    List.sort
      (fun (a : Tuner.Search.measured) b ->
        compare
          (int_of_string (List.assoc "tiling" a.cand.params))
          (int_of_string (List.assoc "tiling" b.cand.params)))
      sweep
  in
  let metric (m : Tuner.Search.measured) = Tuner.Metrics.of_candidate m.cand in
  let rows =
    List.map
      (fun (m : Tuner.Search.measured) ->
        let mt = metric m in
        [
          List.assoc "tiling" m.cand.params;
          Printf.sprintf "%.3e" mt.efficiency;
          Printf.sprintf "%.1f" mt.utilization;
          Printf.sprintf "%.4f" (m.time_s *. 1000.0);
        ])
      sweep
  in
  print_string (Tuner.Report.table [ "Tiling"; "Efficiency"; "Utilization"; "Time (ms)" ] rows);
  (* Normalized reciprocal plot, lower is better — the paper's style. *)
  let norm xs =
    let m = List.fold_left Float.max 0.0 xs in
    List.map (fun x -> x /. m) xs
  in
  let tf = List.map (fun (m : Tuner.Search.measured) -> float_of_string (List.assoc "tiling" m.cand.params)) sweep in
  let inv_eff = norm (List.map (fun m -> 1.0 /. (metric m).efficiency) sweep) in
  let inv_util = norm (List.map (fun m -> 1.0 /. (metric m).utilization) sweep) in
  let times = norm (List.map (fun (m : Tuner.Search.measured) -> m.time_s) sweep) in
  print_string
    (Tuner.Report.series_plot ~x_name:"tiling factor" ~y_name:"normalized (lower=better)"
       [
         ("execution time", List.combine tf times);
         ("1/efficiency", List.combine tf inv_eff);
         ("1/utilization", List.combine tf inv_util);
       ]);
  let effs = List.map (fun m -> (metric m).efficiency) sweep in
  let utils = List.map (fun m -> (metric m).utilization) sweep in
  let rec increasing = function a :: b :: tl -> a <= b && increasing (b :: tl) | _ -> true in
  check "efficiency improves monotonically with tiling factor" (increasing effs);
  check "utilization worsens monotonically with tiling factor" (increasing (List.rev utils));
  (* Paper: time follows efficiency until the utilization collapse
     counters it at tiling 16.  In our simulator the counter-effect
     appears as saturation — the t8 -> t16 gain shrinks to a fraction
     of the earlier gains despite efficiency still improving 18%
     (see EXPERIMENTS.md on the in-order-pipe difference from
     silicon, where the curve turned slightly upward). *)
  match List.map (fun (m : Tuner.Search.measured) -> m.time_s) sweep with
  | [ _t1; t2; t4; t8; t16 ] ->
    let gain_mid = t4 -. t8 and gain_last = t8 -. t16 in
    check "returns collapse at tiling 16 as utilization falls (time saturates)"
      (gain_last < 0.5 *. gain_mid);
    check "efficiency alone would overshoot: t16 is no real improvement on t8"
      (t16 > t8 *. 0.9 && t2 > t8)
  | _ -> check "tiling sweep has five points" false

(* ------------------------------------------------------------------ *)
(* Figure 6 + Table 4: Pareto pruning for all four applications        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6: Searching by Pareto-Optimal Performance Metrics";
  List.iter
    (fun (r : Tuner.Search.result) ->
      printf "\n--- %s: %d configurations, %d Pareto-selected ---\n" r.app_name r.space_size
        (List.length r.selected);
      print_string (Tuner.Report.figure6 r);
      check
        (Printf.sprintf "%s: optimum on the Pareto curve (<= 2%% equivalence)" r.app_name)
        r.optimum_selected;
      printf "      (strict argmin selected: %b; pruned-search pick: %s, %.4f ms vs optimum %.4f ms)\n"
        r.optimum_exact r.selected_best.cand.desc
        (r.selected_best.time_s *. 1000.0) (r.best.time_s *. 1000.0))
    (all_results ())

let table4 () =
  section "Table 4: Parameter Search Properties";
  let rs = all_results () in
  print_string (Tuner.Report.table Tuner.Report.table4_header (List.map Tuner.Report.table4_row rs));
  printf "\n(evaluation times are simulated GPU seconds: the cost the paper pays on hardware)\n";
  List.iter
    (fun (r : Tuner.Search.result) ->
      check
        (Printf.sprintf "%s: search space reduced by >= 50%%" r.app_name)
        (r.reduction >= 0.5))
    rs;
  check "best reduction reaches the paper's 74-98% band"
    (List.exists (fun (r : Tuner.Search.result) -> r.reduction >= 0.74) rs)

(* ------------------------------------------------------------------ *)
(* Table 3: application suite and speedups                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: Application Suite (speedup over single-thread CPU model)";
  let mm = Lazy.force matmul_result in
  let cp = Lazy.force cp_result in
  let sad = Lazy.force sad_result in
  let mri = Lazy.force mri_result in
  let cp_s = Apps.Cp.bench and sad_s = Apps.Sad.bench and mri_s = Apps.Mri_fhd.bench in
  let rows =
    [
      Apps.Cpu_model.row ~app:"Matrix Multiplication"
        ~description:(Printf.sprintf "dense %dx%d SGEMM (CPU: MKL-class)" matmul_n matmul_n)
        ~cpu_s:(Apps.Cpu_model.matmul_seconds ~n:matmul_n)
        ~gpu_s:mm.best.time_s;
      Apps.Cpu_model.row ~app:"CP"
        ~description:(Printf.sprintf "%dx%d grid, %d atoms" cp_s.npx cp_s.npy cp_s.natoms)
        ~cpu_s:(Apps.Cpu_model.cp_seconds ~interactions:(Apps.Cp.interactions cp_s))
        ~gpu_s:cp.best.time_s;
      Apps.Cpu_model.row ~app:"SAD"
        ~description:
          (Printf.sprintf "QCIF %dx%d, 4x4 blocks, +-%d search" sad_s.w sad_s.h sad_s.sr)
        ~cpu_s:(Apps.Cpu_model.sad_seconds ~absdiff_ops:(Apps.Sad.absdiff_ops sad_s))
        ~gpu_s:sad.best.time_s;
      Apps.Cpu_model.row ~app:"MRI-FHD"
        ~description:
          (Printf.sprintf "%d voxels, %d k-space samples" mri_s.nvox mri_s.nsamples)
        ~cpu_s:(Apps.Cpu_model.mri_seconds ~interactions:(Apps.Mri_fhd.interactions mri_s))
        ~gpu_s:mri.best.time_s;
    ]
  in
  print_string
    (Tuner.Report.table
       [ "Application"; "Description"; "CPU (model)"; "GPU (sim)"; "Speedup" ]
       (List.map
          (fun (r : Apps.Cpu_model.row) ->
            [
              r.app;
              r.description;
              Printf.sprintf "%.4f s" r.cpu_s;
              Printf.sprintf "%.6f s" r.gpu_s;
              Printf.sprintf "%.1fx" r.speedup;
            ])
          rows));
  let sp app = (List.find (fun (r : Apps.Cpu_model.row) -> r.app = app) rows).speedup in
  check "speedup ordering: CP >> MRI-FHD >> {matmul, SAD} (paper's shape)"
    (sp "CP" > sp "MRI-FHD"
    && sp "MRI-FHD" > sp "Matrix Multiplication"
    && sp "MRI-FHD" > sp "SAD")

(* ------------------------------------------------------------------ *)
(* Ablations: single-metric pruning and random sampling                *)
(* ------------------------------------------------------------------ *)

(* Section 5.1 of the paper argues that "neither [metric] is sufficient
   in isolation"; section 7 proposes comparing the method against
   random sampling of the space.  Both studies, run on every app:

   - prune with efficiency only / utilization only / both (the paper's
     method), and report the best configuration each finds;
   - random sampling with the same measurement budget as the Pareto
     subset, repeated over many seeds: how often does it find a
     configuration as good as the Pareto pick? *)
let ablation () =
  section "Ablation: single-metric pruning and random sampling (paper secs 5.1, 7)";
  let header =
    [
      "Kernel"; "budget"; "Pareto pick"; "eff-only pick"; "util-only pick";
      "random hit rate";
    ]
  in
  let rows =
    List.map
      (fun (r : Tuner.Search.result) ->
        let time_of (c : Tuner.Candidate.t) =
          match
            List.find_opt (fun (m : Tuner.Search.measured) -> m.cand.desc = c.desc) r.exhaustive
          with
          | Some m -> m.time_s
          | None -> infinity
        in
        let budget = List.length r.selected in
        (* Single-metric "frontier" = the top-k by that metric alone,
           with the same measurement budget. *)
        let top_k_by proj =
          let sorted =
            List.sort (fun (_, a) (_, b) -> compare (proj b) (proj a)) r.all
          in
          List.filteri (fun idx _ -> idx < budget) sorted
        in
        let best_of sel =
          List.fold_left (fun acc (c, _) -> Float.min acc (time_of c)) infinity sel
        in
        let eff_best = best_of (top_k_by (fun (m : Tuner.Metrics.t) -> m.efficiency)) in
        let util_best = best_of (top_k_by (fun (m : Tuner.Metrics.t) -> m.utilization)) in
        let pareto_best = r.selected_best.time_s in
        (* Random sampling at equal budget: fraction of 200 seeded draws
           whose best sampled config is within 2% of the Pareto pick. *)
        let cands = Array.of_list r.exhaustive in
        let trials = 200 in
        let hits = ref 0 in
        for seed = 1 to trials do
          let rng = Util.Rng.create (seed * 7919) in
          let best = ref infinity in
          for _ = 1 to budget do
            let m = cands.(Util.Rng.int rng (Array.length cands)) in
            best := Float.min !best m.time_s
          done;
          if !best <= pareto_best *. 1.02 then incr hits
        done;
        let pct t = Printf.sprintf "%.4f ms (%+.0f%%)" (t *. 1000.0) ((t /. r.best.time_s -. 1.0) *. 100.0) in
        [
          r.app_name;
          string_of_int budget;
          pct pareto_best;
          pct eff_best;
          pct util_best;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int !hits /. float_of_int trials);
        ])
      (all_results ())
  in
  print_string (Tuner.Report.table header rows);
  printf "\n('+N%%' = slower than the true optimum; hit rate = random sampling matching the\n";
  printf " Pareto pick within 2%% at equal measurement budget, over 200 seeds)\n";
  (* What the data supports (and the paper claims in 5.1): a single
     metric can be a badly insufficient predictor — utilization-only
     ranking misses the optimum by a large margin on some apps — while
     the Pareto combination never strays beyond measurement
     equivalence.  Random sampling at the same budget is a coin flip or
     worse on the structured spaces. *)
  let util_gap (r : Tuner.Search.result) =
    let time_of (c : Tuner.Candidate.t) =
      match
        List.find_opt (fun (m : Tuner.Search.measured) -> m.cand.desc = c.desc) r.exhaustive
      with
      | Some m -> m.time_s
      | None -> infinity
    in
    let budget = List.length r.selected in
    let sorted =
      List.sort
        (fun (_, (a : Tuner.Metrics.t)) (_, (b : Tuner.Metrics.t)) ->
          compare b.utilization a.utilization)
        r.all
    in
    let top = List.filteri (fun idx _ -> idx < budget) sorted in
    let best = List.fold_left (fun acc (c, _) -> Float.min acc (time_of c)) infinity top in
    (best /. r.best.time_s) -. 1.0
  in
  check "utilization alone misses the optimum badly on some app (paper 5.1)"
    (List.exists (fun r -> util_gap r > 0.10) (all_results ()));
  check "the Pareto combination stays within 2% everywhere"
    (List.for_all (fun (r : Tuner.Search.result) -> r.optimum_selected) (all_results ()))

(* ------------------------------------------------------------------ *)
(* Pipeline trace: per-pass statistics, one configuration per app      *)
(* ------------------------------------------------------------------ *)

(* Compiles the most heavily transformed configuration of every app
   (the last point of its space) through the verified pipeline with the
   statistics hook on, and prints the per-pass trace. *)
let trace () =
  section "Pipeline trace: per-pass statistics (one configuration per app)";
  List.iter
    (fun (e : Apps.Registry.entry) ->
      let desc = List.hd (List.rev (Lazy.force e.configs)) in
      let stats = ref [] in
      match e.compile ~hook:(fun s -> stats := s :: !stats) desc with
      | exception Tuner.Fault.Pass_failed { stage; reason } ->
        printf "\n--- %s %s ---\n" e.display desc;
        check (Printf.sprintf "%s: per-stage verification clean" e.name) false;
        printf "  pass %s failed: %s\n" stage reason
      | Error msg ->
        printf "\n--- %s ---\n" e.display;
        check (Printf.sprintf "%s: per-stage verification clean" e.name) false;
        printf "  %s\n" msg
      | Ok c ->
        printf "\n--- %s %s (%d instrs, %d regs/thread) ---\n" e.display desc
          (Ptx.Prog.static_size c.ptx) c.resource.regs_per_thread;
        print_string (Tuner.Pipeline.trace_table (List.rev !stats));
        check (Printf.sprintf "%s: per-stage verification clean" e.name) true)
    Apps.Registry.all

(* ------------------------------------------------------------------ *)
(* Static lints: the memory-access analyzer on every app               *)
(* ------------------------------------------------------------------ *)

(* Run the affine analyzer on every app's quick-scale workbench, print
   the lint reports, and cross-validate every static transaction /
   bank-conflict prediction against the simulator's per-site counters
   (exact agreement required on analyzable sites).  Then demonstrate
   the bug detectors on deliberately broken matmul variants. *)
let lint () =
  section "Static lints: memory-access analysis, cross-validated against the simulator";
  List.iter
    (fun (e : Apps.Registry.entry) ->
      match e.workbench () with
      | Error msg ->
        printf "%s: %s\n" e.name msg;
        check (Printf.sprintf "%s: analysis workbench builds" e.name) false
      | Ok wb ->
        let report = Apps.Workbench.lint wb in
        printf "\n";
        print_string (Analysis.Lint.render report);
        let cv = Apps.Workbench.crossval wb report in
        printf "  crossval: %d sites, %d checked, %d not analyzable, %d mismatches\n"
          cv.Analysis.Crossval.cv_total cv.Analysis.Crossval.cv_checked
          cv.Analysis.Crossval.cv_top cv.Analysis.Crossval.cv_mismatches;
        check
          (Printf.sprintf "%s: race-free, all barriers convergent" e.name)
          (not (Analysis.Lint.has_errors report));
        check
          (Printf.sprintf "%s: static = dynamic on all %d analyzable sites" e.name
             cv.Analysis.Crossval.cv_checked)
          (cv.Analysis.Crossval.cv_mismatches = 0
          && cv.Analysis.Crossval.cv_checked > 0
          && cv.Analysis.Crossval.cv_total
             = cv.Analysis.Crossval.cv_checked + cv.Analysis.Crossval.cv_top))
    Apps.Registry.all;
  (* The detectors on known-bad kernels: drop the second barrier of the
     matmul tile loop (classic read-before-write race), transpose the
     As store (classic bank conflict). *)
  match (registry "matmul").workbench () with
  | Error msg -> printf "matmul workbench: %s\n" msg
  | Ok wb ->
    let racy = Apps.Workbench.lint_mutant wb (Kir.Mutate.drop_sync ~index:1) in
    check "barrier-dropped matmul mutant is flagged as racy"
      (racy.Analysis.Lint.r_races.Analysis.Races.findings <> []);
    let conflicted = Apps.Workbench.lint_mutant wb (Kir.Mutate.transpose_store ~array:"As") in
    let has_conflict =
      List.exists
        (fun (sr : Analysis.Lint.site_report) ->
          match sr.Analysis.Lint.sr_verdict with
          | Analysis.Lint.Bank_conflict _ -> true
          | _ -> false)
        conflicted.Analysis.Lint.r_sites
    in
    check "store-transposed matmul mutant has bank conflicts" has_conflict

(* ------------------------------------------------------------------ *)
(* Superopt: the tiered rule-discovery funnel                          *)
(* ------------------------------------------------------------------ *)

(* Bounded superoptimizer discovery on g80: run the full enumeration
   through the equivalence funnel, report the per-tier rejection
   counts and discovery throughput, check the headline guarantees
   (enough rules, worker-count invariance, no rule refutable by fresh
   random vectors, the hand-written Ptx.Opt folds rediscovered), and
   write BENCH_superopt.json so the discovery-rate trajectory is
   machine-checkable across commits. *)
let superopt () =
  section "Superopt: tiered rule discovery + equivalence funnel (g80)";
  let module So = Tuner.Superopt in
  let module P = Ptx.Patterns in
  let r = So.discover ~jobs:!jobs () in
  let f = r.So.funnel in
  print_string (So.funnel_table f);
  let q, b, e = So.tier_counts r.So.rules in
  let nrules = List.length r.So.rules in
  let rate = float_of_int f.So.fn_pairs /. Float.max 1e-9 r.So.elapsed_s in
  printf "%d rules (%d quick / %d bounded / %d exhaustive), %.1fs, %.0f candidate pairs/s\n"
    nrules q b e r.So.elapsed_s rate;
  printf "db digest: %s (key %s)\n" (P.digest r.So.rules) (So.db_key ());
  check "bounded discovery harvests >= 10 verified rules" (nrules >= 10);
  check "every rule is wellformed" (List.for_all P.wellformed r.So.rules);
  let has lhs rhs =
    List.exists
      (fun (ru : P.rule) -> Ptx.Window.key ru.P.lhs = lhs && Ptx.Window.key ru.P.rhs = rhs)
      r.So.rules
  in
  check "machine-checked equivalents of the Ptx.Opt folds present"
    (has "add.s32 %r1, %r0, 0;" "mov.s32 %r1, %r0;"
    && has "mul.f32 %f1, %f0, 1.0;" "mov.f32 %f1, %f0;"
    && has "add.f32 %f1, %f0, -0.0;" "mov.f32 %f1, %f0;");
  check "the unsound x+0.0 fold is absent (PR 1's signed-zero bug)"
    (not (List.exists (fun (ru : P.rule) -> Ptx.Window.key ru.P.lhs = "add.f32 %f1, %f0, 0.0;") r.So.rules));
  (* Worker-count invariance, on the single-instruction tier so the
     second discovery stays cheap. *)
  let d1 = So.discover ~jobs:1 ~max_len:1 () in
  let d4 = So.discover ~jobs:4 ~max_len:1 () in
  check "rule DB bit-identical for --jobs 1 vs --jobs 4"
    (P.to_string d1.So.rules = P.to_string d4.So.rules);
  (* Zero false equivalences: fresh random vectors, disjoint from the
     funnel's seeding, must refute no rule. *)
  let refuted = ref 0 in
  List.iteri
    (fun idx (ru : P.rule) ->
      let rng = Util.Rng.create (0x5eed + idx) in
      let outs = P.outputs ru in
      for _ = 1 to 64 do
        let assign =
          List.map
            (fun reg -> (reg, Ptx.Equiv.random_value rng (Ptx.Reg.ty reg)))
            (Ptx.Window.inputs ru.P.lhs)
        in
        let eval seq =
          let c = Ptx.Equiv.make_ctx assign in
          Ptx.Equiv.run_seq c seq;
          List.map (Ptx.Equiv.reg_value c) outs
        in
        if not (List.for_all2 Ptx.Equiv.equal_value (eval ru.P.lhs) (eval ru.P.rhs)) then
          incr refuted
      done)
    r.So.rules;
  check "zero false equivalences under a fresh adversarial sweep" (!refuted = 0);
  (* The pass on a real kernel: matmul's raw lowering, translation-
     validated after rewriting. *)
  (match (registry "matmul").workbench () with
  | Error msg ->
    printf "matmul workbench: %s\n" msg;
    check "peephole pass rewrites matmul's raw lowering" false
  | Ok wb ->
    let before = Kir.Lower.lower wb.Apps.Workbench.wb_kernel in
    let after, st = Ptx.Peephole.run_stats r.So.rules before in
    printf "matmul raw lowering: %d -> %d instructions, %d window(s) rewritten, %d blocked by liveness\n"
      (Ptx.Prog.static_size before) (Ptx.Prog.static_size after) st.Ptx.Peephole.matched
      st.Ptx.Peephole.blocked;
    check "peephole pass rewrites matmul's raw lowering" (st.Ptx.Peephole.matched >= 1);
    check "rewritten kernel passes translation validation"
      (match Ptx.Equiv.validate before after with Ok _ -> true | Error _ -> false));
  write_json "BENCH_superopt.json"
    (Obj
       [
         ("bench", Str "superopt");
         ("arch", Str "g80");
         ("jobs", Int !jobs);
         ("rules", Int nrules);
         ("tiers", Obj [ ("quick", Int q); ("bounded", Int b); ("exhaustive", Int e) ]);
         ( "funnel",
           Obj
             [
               ("windows", Int f.So.fn_lhs);
               ("pairs", Int f.So.fn_pairs);
               ("rejected_quick", Int f.So.fn_quick);
               ("rejected_bounded", Int f.So.fn_bounded);
               ("rejected_exhaustive", Int f.So.fn_exhaustive);
               ("unsupported", Int f.So.fn_unsupported);
               ("passed", Int f.So.fn_passed);
             ] );
         ("elapsed_s", Float r.So.elapsed_s);
         ("pairs_per_s", Float rate);
         ("db_digest", Str (P.digest r.So.rules));
       ])

(* ------------------------------------------------------------------ *)
(* Predictive pruning: the model-driven race                           *)
(* ------------------------------------------------------------------ *)

(* For each app, run the budget-only race (fresh engine, no store, no
   exhaustive sweep feeding it) and judge it against the ground truth
   the bench-scale sweeps above already computed: the race must recover
   the true optimum while fully simulating no more than 10% of the
   space AND no more than the paper methodology itself measures (one
   minus the Pareto reduction on the same space) — i.e. it prunes at
   least as hard as Table 4, per app.  Then the determinism pin: the
   fitted model, the predicted ranking and the winner are bit-identical
   for jobs=1 and jobs=4. *)

let prune_pairs () =
  [
    ("matmul", Lazy.force matmul_result);
    ("mri", Lazy.force mri_result);
    ("cp", Lazy.force cp_result);
    ("sad", Lazy.force sad_result);
  ]

let prune () =
  section "Predictive pruning: true optimum on a sliver of the space";
  let rules =
    (Tuner.Superopt.discover ~jobs:!jobs ~max_len:1 ~sweep:64 ()).Tuner.Superopt.rules
  in
  printf "rule database: %d rule(s) feeding the rule-win feature\n%!" (List.length rules);
  let race ~jobs ~budget name =
    let e = registry name in
    let spec = Tuner.Prune.spec ~budget_frac:budget ~rules ~reduced:(e.reduced_candidates ()) () in
    let engine = Tuner.Measure.create ~app_name:name () in
    Tuner.Prune.run ~jobs ~engine ~app_name:name spec (e.bench_candidates ())
  in
  let rows =
    List.map
      (fun (name, (r : Tuner.Search.result)) ->
        (* The tighter of the headline 10% and what the Pareto curve
           itself leaves: the race may never out-spend the methodology
           it claims to sharpen. *)
        let budget = Float.min 0.10 (1.0 -. r.reduction) in
        let t0 = Unix.gettimeofday () in
        let o = race ~jobs:!jobs ~budget name in
        printf "(%s race: %d of %d simulated in %.1fs host time)\n%!" name
          o.Tuner.Prune.pr_simulated o.Tuner.Prune.pr_total
          (Unix.gettimeofday () -. t0);
        (name, r, budget, o))
      (prune_pairs ())
  in
  print_string
    (Tuner.Report.table Tuner.Report.prune_header
       (List.map
          (fun (_, r, _, o) ->
            Tuner.Report.prune_row { r with Tuner.Search.prune = Some o })
          rows));
  printf "\n";
  List.iter
    (fun (name, (r : Tuner.Search.result), _, (o : Tuner.Prune.outcome)) ->
      let frac =
        float_of_int o.Tuner.Prune.pr_simulated /. float_of_int o.Tuner.Prune.pr_total
      in
      check
        (Printf.sprintf "%s: race recovers the true optimum" name)
        (Tuner.Prune.recovered o ~best:r.best);
      check
        (Printf.sprintf "%s: <= 10%% of the space fully simulated" name)
        (frac <= 0.10 +. 1e-9);
      check
        (Printf.sprintf "%s: prunes at least as hard as the Pareto curve" name)
        (1.0 -. frac >= r.reduction -. 1e-9))
    rows;
  (* Determinism: the whole outcome — model coefficients, predicted
     ranking, race winner — is a pure function of the space, not of the
     worker count. *)
  let key (o : Tuner.Prune.outcome) =
    ( Tuner.Predict.digest o.Tuner.Prune.pr_model,
      o.Tuner.Prune.pr_winner.Tuner.Measure.cand.desc,
      o.Tuner.Prune.pr_winner.Tuner.Measure.time_s,
      o.Tuner.Prune.pr_simulated,
      o.Tuner.Prune.pr_probes,
      o.Tuner.Prune.pr_survivors,
      o.Tuner.Prune.pr_ranked )
  in
  let d1 = race ~jobs:1 ~budget:0.10 "matmul" in
  let d4 = race ~jobs:4 ~budget:0.10 "matmul" in
  check "jobs 1 vs 4: model, ranking and winner bit-identical" (key d1 = key d4);
  (* ---- BENCH_prune.json -------------------------------------------- *)
  write_json "BENCH_prune.json"
    (Obj
       [
         ("bench", Str "prune");
         ("arch", Str "g80");
         ("jobs", Int !jobs);
         ( "apps",
           List
             (List.map
                (fun (name, (r : Tuner.Search.result), budget, (o : Tuner.Prune.outcome)) ->
                  Util.Json.Obj
                    [
                      ("app", Str name);
                      ("space", Int o.pr_total);
                      ("budget_frac", Float budget);
                      ("probes", Int (List.length o.pr_probes));
                      ("raced", Int o.pr_raced);
                      ("survivors", Int (List.length o.pr_survivors));
                      ("simulated", Int o.pr_simulated);
                      ( "simulated_frac",
                        Float (float_of_int o.pr_simulated /. float_of_int o.pr_total) );
                      ("pareto_reduction", Float r.reduction);
                      ( "optimum_rank",
                        Int (Option.value (Tuner.Prune.rank_of o r.best.cand.desc) ~default:0) );
                      ("recovered", Bool (Tuner.Prune.recovered o ~best:r.best));
                      ("model", Str (Tuner.Predict.digest o.pr_model));
                    ])
                rows) );
         ("jobs_bit_identical", Bool (key d1 = key d4));
       ])

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("table3", table3);
    ("table4", table4);
    ("ablation", ablation);
    ("trace", trace);
    ("lint", lint);
    ("superopt", superopt);
    ("prune", prune);
  ]

let () =
  let usage fmt = Printf.ksprintf (fun msg -> prerr_endline ("bench: " ^ msg); exit 124) fmt in
  let set_jobs n =
    match int_of_string_opt n with
    | Some j when j >= 1 && j <= Util.Pool.max_jobs -> jobs := j
    | _ -> usage "--jobs expects an integer in 1..%d, got %S" Util.Pool.max_jobs n
  in
  let rec parse_jobs acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest | "-j" :: n :: rest ->
      set_jobs n;
      parse_jobs acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      set_jobs (String.sub a 7 (String.length a - 7));
      parse_jobs acc rest
    | a :: rest -> parse_jobs (a :: acc) rest
  in
  let args = parse_jobs [] (List.tl (Array.to_list Sys.argv)) in
  List.iter
    (fun a ->
      if not (List.mem_assoc a experiments) then
        usage "unknown experiment %S; available: %s" a (String.concat ", " (List.map fst experiments)))
    args;
  let selected = if args = [] then List.map fst experiments else args in
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) ()) selected;
  printf "\nTotal harness time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if !failed_checks > 0 then begin
    printf "%d CHECK(s) failed\n" !failed_checks;
    exit 1
  end
