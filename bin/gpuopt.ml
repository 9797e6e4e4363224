(* gpuopt — command-line interface to the optimization-space pruning
   toolkit.

     gpuopt arch [NAME]          print one machine model (Tables 1-2)
     gpuopt archs                list the machine-model registry
     gpuopt explore <app>        exhaustive vs pruned search, one app
     gpuopt tune <app>           pruned-only search (the methodology)
     gpuopt predict <app>        model-driven race: probe, fit, rank, halve
     gpuopt inspect <app>        optimization space; --trace one config
     gpuopt lint <app>           static memory-access analysis
     gpuopt compile <file.mcu>   minicuda -> PTX, resources, profile
     gpuopt run <file.mcu> ...   compile and simulate a kernel
     gpuopt chaos <app>          fault-injection self-test of the tuner
     gpuopt serve                tuning-service daemon (store-backed)
     gpuopt request <verb> ...   send one request to a running daemon

   Applications come from the registry (Apps.Registry.all): matmul,
   cp, sad, mri. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* The exit contract                                                   *)
(* ------------------------------------------------------------------ *)

(* A command returns [Cmd.Exit.ok] or raises a typed failure: an input
   it cannot use, or a negative verdict once its report is printed
   ([verdict]).  The handler at the bottom of this file prints the
   failure as one stderr line and exits [failed].  A wrong command line
   never reaches a command (the converters below reject it) or is
   refused through [Term.ret] when only the run can tell ([usage]). *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun line -> raise (Failed line)) fmt
let usage fmt = Printf.ksprintf (fun msg -> `Error (true, msg)) fmt
let failed = 1

(* [Cmd.Exit.ok] if [ok], else the failure the format describes. *)
let verdict ok fmt =
  Printf.ksprintf (fun line -> if ok then Cmd.Exit.ok else raise (Failed line)) fmt

(* Every command's EXIT STATUS section; README's "Exit status" states
   the same contract. *)
let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info failed
        ~doc:
          "when the command ran and failed: on a negative verdict (lint errors, fsck damage, a \
           failed CHECK or validation, an error reply from the daemon) or on an input it cannot \
           use (a foreign store, a missing directory, a live socket, an unreachable daemon).  One \
           stderr line says which.";
      info cli_error
        ~doc:
          "when the command line is wrong: an unknown name, a number out of its range, a missing \
           argument.";
      info internal_error ~doc:"on a bug: an uncaught exception.";
    ]

let command name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

(* An integer option's domain, as its --help states it. *)
let int_in ?max min =
  let range =
    match max with Some m -> Printf.sprintf "in %d..%d" min m | None -> Printf.sprintf ">= %d" min
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && Option.fold max ~none:true ~some:(fun m -> n <= m) -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer %s, got %S" range s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* ------------------------------------------------------------------ *)

let app_conv =
  let parse s =
    match Apps.Registry.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown app %S (expected %s)" s
             (String.concat "|" Apps.Registry.names)))
  in
  Arg.conv (parse, fun fmt (e : Apps.Registry.entry) -> Format.pp_print_string fmt e.name)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Application to search")

let quick_arg =
  let doc = "Use a tiny problem size (smoke test) instead of the paper-scale one." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let stats_arg =
  let doc =
    "Print measurement-engine statistics: simulator runs vs cache hits, and simulator throughput \
     (warp instructions per host second); summed over the archs under $(b,--arch all)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* Shared by explore/tune/predict: append the verified peephole pass,
   built from a (store-cached) superoptimizer discovery run on the
   target arch. *)
let rules_flag =
  let doc =
    "Append the superoptimizer's verified peephole pass to every candidate's PTX optimization.  \
     The rule database is discovered for the target arch (and cached in $(b,--store) when given)."
  in
  Arg.(value & flag & info [ "rules" ] ~doc)

(* Shared by explore/predict: the model-driven race's full-simulation
   budget, as a percentage of the valid space. *)
let budget_arg =
  let doc =
    "Full-simulation budget of the model-driven race, as a percentage of the valid space \
     (1 to 100, default 10).  The race fully simulates at most this many candidates — probes \
     plus survivors — and races the rest at the reduced launch shape."
  in
  Arg.(value & opt (some (int_in ~max:100 1)) None & info [ "budget" ] ~docv:"PCT" ~doc)

(* The store's tag for a space's problem scale: the daemon's names for
   the quick and paper shapes, so served and direct runs share
   entries. *)
let store_scale quick = if quick then "quick" else "full"

(* One space as explore, tune and predict search it: [e]'s candidates
   on [arch] at the --quick (smoke) or paper shape, with the verified
   peephole leg appended under --rules (the rule database is the
   predictor's rule-win feature too), and the model-driven race at a
   --budget percentage.  The race runs on the reduced shape; a quick
   space is that shape already, so it races itself and reuses the
   sweep's measurements. *)
type space = { cands : Tuner.Candidate.t list; race : int option -> Tuner.Prune.spec }

let space ?store ~jobs (e : Apps.Registry.entry) ~quick ~rules (arch : Gpu.Arch.t) : space =
  let db =
    if not rules then None
    else begin
      let r = Tuner.Superopt.discover_cached ?store ~jobs ~arch () in
      Printf.printf "peephole: %d verified rule(s)%s, db %s\n"
        (List.length r.Tuner.Superopt.rules)
        (if r.Tuner.Superopt.cached then " (from store)" else "")
        (Ptx.Patterns.digest r.Tuner.Superopt.rules);
      Some r.Tuner.Superopt.rules
    end
  in
  let extra_ptx = Option.map (fun rs -> [ Tuner.Pipeline.peephole rs ]) db in
  let cands = (if quick then e.quick_candidates else e.candidates) ~arch ?extra_ptx () in
  let race budget =
    Tuner.Prune.spec
      ?budget_frac:(Option.map (fun pct -> float_of_int pct /. 100.0) budget)
      ~rules:(Option.value db ~default:[])
      ~reduced:(if quick then cands else e.reduced_candidates ~arch ?extra_ptx ())
      ()
  in
  { cands; race }

let print_prune_outcome (r : Tuner.Search.result) =
  match r.Tuner.Search.prune with
  | None -> ()
  | Some o ->
    Printf.printf "\nmodel-driven race (%d full simulations budgeted of %d):\n" o.Tuner.Prune.pr_budget
      o.Tuner.Prune.pr_total;
    print_string (Tuner.Report.prune_table r);
    Printf.printf "race winner:    %s  (%.4f ms)\n" o.Tuner.Prune.pr_winner.Tuner.Measure.cand.desc
      (o.Tuner.Prune.pr_winner.Tuner.Measure.time_s *. 1000.0);
    Printf.printf "model %s fit on %d probe(s)\n"
      (Tuner.Predict.digest o.Tuner.Prune.pr_model)
      o.Tuner.Prune.pr_model.Tuner.Predict.md_rows

(* Which machine model to target, by registry name.  With [~all]
   (explore and tune), "all" reads as None: sweep every registry model
   and report a per-arch winner table. *)
let arch_conv ~all =
  let names = Gpu.Arch.names @ if all then [ "all" ] else [] in
  let parse s =
    match Gpu.Arch.find s with
    | Some a -> Ok (Some a)
    | None when all && s = "all" -> Ok None
    | None ->
      Error (`Msg (Printf.sprintf "unknown arch %S (expected %s)" s (String.concat "|" names)))
  in
  let print fmt = function
    | Some (a : Gpu.Arch.t) -> Format.pp_print_string fmt a.name
    | None -> Format.pp_print_string fmt "all"
  in
  Arg.conv (parse, print)

let arch_opt ~all ~doc =
  Arg.(value & opt (arch_conv ~all) (Some Gpu.Arch.g80) & info [ "arch" ] ~docv:"NAME" ~doc)

let arch_doc = "Target machine model, by registry name (see $(b,gpuopt archs))."

let arch_or_all_arg =
  arch_opt ~all:true
    ~doc:(arch_doc ^ "  $(b,all) sweeps every registry model and reports a per-arch winner table.")

(* Without [~all] the converter never yields None. *)
let arch_arg = Term.(const Option.get $ arch_opt ~all:false ~doc:arch_doc)

let winner_line (arch : Gpu.Arch.t) (m : Tuner.Search.measured) =
  Printf.printf "winner[%s] %s  (%.4f ms)\n" arch.Gpu.Arch.name m.cand.desc (m.time_s *. 1000.0)

(* [f ()] with the simulator launches and warp instructions issued
   while it ran.  The counters are process-wide; a command runs one
   search (or one cross-arch run), so the difference around it is that
   run's work. *)
let sim_work f =
  let launches0 = Gpu.Sim.sim_runs () and wi0 = Gpu.Sim.warp_instrs_issued () in
  let r = f () in
  (r, Gpu.Sim.sim_runs () - launches0, Gpu.Sim.warp_instrs_issued () - wi0)

(* explore's --stats block: the engine's requests, the simulator's work
   and, under --store, the store's hits. *)
let print_stats ~stored (s : Tuner.Measure.stats) (launches, warp_instrs) =
  let requests = s.measure_runs + s.measure_hits in
  Printf.printf "\nmeasurement engine: %d requests -> %d simulator runs + %d cache hits\n"
    requests s.measure_runs s.measure_hits;
  Printf.printf "                    (the Pareto subset re-reads the exhaustive sweep's cache)\n";
  Printf.printf "simulator:          %d launches, %d warp-instrs in %.2fs host time" launches
    warp_instrs s.measure_host_s;
  if s.measure_host_s > 0.0 then
    Printf.printf " (%.2f M warp-instrs/s)" (float_of_int warp_instrs /. s.measure_host_s /. 1e6);
  Printf.printf "\n";
  if stored then Printf.printf "result store:       %d hit(s), %d miss(es)\n" s.store_hits s.store_misses

(* Shared by explore/tune: an optional content-addressed result store,
   the same file format the serve daemon uses, so one-shot CLI sweeps
   and the service share measurements. *)
let store_arg =
  let doc =
    "Back measurements with the content-addressed result store in $(docv) (created if absent): \
     points already present are answered from disk, new measurements are appended as they \
     settle, so re-running an interrupted sweep with the same file resumes it.  The same file \
     drives $(b,gpuopt serve)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

(* Open the store in [file], reporting each rejected record once. *)
let open_store ?durable file : Tuner.Store.t =
  let store = Tuner.Store.open_ ?durable ~file () in
  List.iter
    (fun (c : Tuner.Store.corrupt_line) ->
      Printf.eprintf "store: %s:%d rejected: %s\n%!" file c.cl_line c.cl_reason)
    (Tuner.Store.corrupt_entries store);
  store

let with_store store_file (f : Tuner.Store.t option -> 'a) : 'a =
  match store_file with
  | None -> f None
  | Some file ->
    let store = open_store file in
    Fun.protect ~finally:(fun () -> Tuner.Store.close store) (fun () -> f (Some store))

let jobs_doc =
  Printf.sprintf
    "Measurement worker domains, 1 to %d.  Defaults to the GPUOPT_JOBS environment variable when \
     it is in that range, else one less than the available cores (at least 1).  Results are \
     identical for every value."
    Util.Pool.max_jobs

let jobs_arg =
  Arg.(
    value
    & opt (int_in ~max:Util.Pool.max_jobs 1) (Util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:jobs_doc)

(* ------------------------------------------------------------------ *)

let arch_cmd =
  let doc =
    "Print one machine model from the registry (default: the paper's GeForce 8800, Tables 1-2)."
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (arch_conv ~all:false) (Some Gpu.Arch.g80)
      & info [] ~docv:"NAME" ~doc:"Machine model to print (see $(b,gpuopt archs)).")
  in
  let run a =
    let a = Option.get a in
    let l = a.Gpu.Arch.limits and lat = a.Gpu.Arch.latencies in
    Printf.printf "%s — %s\n\n" a.Gpu.Arch.name a.Gpu.Arch.display;
    if a.Gpu.Arch.name = Gpu.Arch.g80.Gpu.Arch.name then begin
      print_string
        (Tuner.Report.table
           [ "Memory"; "Location"; "Size"; "Latency"; "RO" ]
           (List.map
              (fun (m : Gpu.Arch.memory_row) ->
                [ m.mem_name; m.location; m.size; m.latency; (if m.read_only then "yes" else "no") ])
              Gpu.Arch.memories));
      Printf.printf "\n"
    end;
    print_string
      (Tuner.Report.table
         [ "Constraint"; "Limit" ]
         [
           [ "SMs"; string_of_int l.num_sms ];
           [ "Threads per SM"; string_of_int l.max_threads_per_sm ];
           [ "Thread blocks per SM"; string_of_int l.max_blocks_per_sm ];
           [ "32-bit registers per SM"; string_of_int l.regs_per_sm ];
           [ "Shared memory per SM (bytes)"; string_of_int l.smem_per_sm ];
           [ "Threads per block"; string_of_int l.max_threads_per_block ];
           [ "Shared-memory banks"; string_of_int a.Gpu.Arch.shared_banks ];
           [ "Issue latency (cycles)"; string_of_int lat.issue ];
           [ "Global latency (cycles)"; string_of_int lat.global ];
         ]);
    Printf.printf "\nPeak %.1f GFLOPS, %.1f GB/s global bandwidth, %.2f GHz\n"
      (Gpu.Arch.peak_gflops a) a.Gpu.Arch.global_bandwidth_gbs a.Gpu.Arch.clock_ghz;
    Cmd.Exit.ok
  in
  command "arch" ~doc Term.(const run $ name_arg)

let archs_cmd =
  let doc = "List the machine-model registry, one line per arch." in
  let run () =
    print_string
      (Tuner.Report.table
         [ "Name"; "Description"; "SMs"; "Banks"; "GHz"; "GFLOPS"; "GB/s" ]
         (List.map
            (fun (a : Gpu.Arch.t) ->
              [
                a.Gpu.Arch.name;
                a.Gpu.Arch.display;
                string_of_int a.Gpu.Arch.limits.num_sms;
                string_of_int a.Gpu.Arch.shared_banks;
                Printf.sprintf "%.2f" a.Gpu.Arch.clock_ghz;
                Printf.sprintf "%.1f" (Gpu.Arch.peak_gflops a);
                Printf.sprintf "%.1f" a.Gpu.Arch.global_bandwidth_gbs;
              ])
            Gpu.Arch.archs));
    Cmd.Exit.ok
  in
  command "archs" ~doc Term.(const run $ const ())

let explore_cmd =
  let doc =
    "Exhaustively measure an application's optimization space, then compare against the \
     Pareto-pruned search (paper Table 4 / Figure 6)."
  in
  let fail_fast_arg =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Abort the sweep on the first measurement fault instead of recording it and \
             searching over the survivors.")
  in
  let predict_flag =
    let doc =
      "Also run the model-driven race: fit a ridge predictor on a seeded probe set, rank the \
       whole space by predicted runtime, race the ranking at the reduced (quick) launch \
       shape, and fully simulate only the survivors (see $(b,--budget)).  Reported \
       next to the Pareto pruning, with whether the race recovered the true optimum."
    in
    Arg.(value & flag & info [ "predict" ] ~doc)
  in
  let run (e : Apps.Registry.entry) jobs quick stats fail_fast store_file arch rules predict budget
      =
    let store_scale = store_scale quick in
    match arch with
    | None when predict ->
      usage "--predict races one space at a time; not supported with --arch all"
    | None ->
      (* Cross-arch sweep: arch is the outer enumeration axis; one
         engine (and store binding) per arch, then the per-arch winner
         table, greppable winner lines and the statistics summed over
         the archs. *)
      let rs, launches, warp_instrs =
        sim_work (fun () ->
            with_store store_file (fun store ->
                Tuner.Search.run_archs ~jobs ~fail_fast ?store ~store_scale ~app_name:e.name
                  ~archs:Gpu.Arch.archs (fun arch -> (space ?store ~jobs e ~quick ~rules arch).cands)))
      in
      print_string (Tuner.Report.arch_winner_table rs);
      Printf.printf "\n";
      List.iter
        (fun (r : Tuner.Search.arch_result) ->
          winner_line r.ar_arch r.ar_result.Tuner.Search.selected_best)
        rs;
      if stats then
        print_stats ~stored:(store_file <> None)
          (Tuner.Measure.sum
             (List.map (fun (r : Tuner.Search.arch_result) -> r.ar_result.Tuner.Search.engine) rs))
          (launches, warp_instrs);
      `Ok Cmd.Exit.ok
    | Some arch ->
      let r, launches, warp_instrs =
        with_store store_file (fun store ->
            let sp = space ?store ~jobs e ~quick ~rules arch in
            sim_work (fun () ->
                Tuner.Search.run ~jobs ~fail_fast ?store
                  ?predict:(if predict then Some (sp.race budget) else None)
                  ~store_scale ~app_name:e.name sp.cands))
      in
      Printf.printf "%d valid configurations (%d invalid)\n\n" r.space_size r.invalid;
      print_string (Tuner.Report.figure6 r);
      Printf.printf "\n";
      print_string (Tuner.Report.table Tuner.Report.table4_header [ Tuner.Report.table4_row r ]);
      print_prune_outcome r;
      Printf.printf "\ntrue optimum:   %s  (%.4f ms)\n" r.best.cand.desc (r.best.time_s *. 1000.0);
      Printf.printf "pruned search:  %s  (%.4f ms)\n" r.selected_best.cand.desc
        (r.selected_best.time_s *. 1000.0);
      winner_line arch r.selected_best;
      if r.faults <> [] then begin
        Printf.printf "\n%d configuration(s) faulted and were excluded:\n"
          (List.length r.faults);
        print_string (Tuner.Report.fault_table r.faults)
      end;
      if stats then print_stats ~stored:(store_file <> None) r.engine (launches, warp_instrs);
      `Ok Cmd.Exit.ok
  in
  command "explore" ~doc
    Term.(
      ret
        (const run $ app_arg $ jobs_arg $ quick_arg $ stats_arg $ fail_fast_arg $ store_arg
       $ arch_or_all_arg $ rules_flag $ predict_flag $ budget_arg))

let predict_cmd =
  let doc =
    "Run the model-driven race alone, without the exhaustive sweep: measure a seeded probe \
     set, fit the ridge runtime predictor on it, rank the whole space by prediction, race the \
     ranking at the reduced launch shape, and fully simulate only the survivors.  \
     Prints the fitted model (standardized weights, largest first), the head of the predicted \
     ranking, and the winner.  Unlike $(b,gpuopt explore --predict) this never measures the \
     rest of the space, so it cannot say whether the winner is the true optimum — it is the \
     production mode the budget buys."
  in
  let top_arg =
    Arg.(
      value
      & opt (int_in 0) 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows of the predicted ranking (and model weights) to print, 0 or more.")
  in
  let run (e : Apps.Registry.entry) jobs quick store_file arch rules budget top =
    let store_scale = store_scale quick in
    with_store store_file (fun store ->
        let sp = space ?store ~jobs e ~quick ~rules arch in
        let spec = sp.race budget in
        let engine = Tuner.Measure.create ~app_name:e.name () in
        Tuner.Search.bind_store engine ~app_name:e.name sp.cands ~store ~store_key:None
          ~store_scale:(Some store_scale);
        let o =
          Tuner.Prune.run ~jobs ?store ~store_scale ~engine ~app_name:e.name spec sp.cands
        in
        Printf.printf "%d valid configurations; budget %d full simulation(s) (%.1f%%)\n"
          o.Tuner.Prune.pr_total o.Tuner.Prune.pr_budget
          (100.0 *. float_of_int o.Tuner.Prune.pr_budget /. float_of_int o.Tuner.Prune.pr_total);
        Printf.printf "probes (%d): %s\n" (List.length o.Tuner.Prune.pr_probes)
          (String.concat ", " o.Tuner.Prune.pr_probes);
        Printf.printf "\nmodel %s fit on %d probe(s); strongest standardized weights:\n"
          (Tuner.Predict.digest o.Tuner.Prune.pr_model)
          o.Tuner.Prune.pr_model.Tuner.Predict.md_rows;
        List.iteri
          (fun i (name, w) ->
            if i < top then Printf.printf "  %-20s %+.4f\n" name w)
          (Tuner.Predict.weight_table o.Tuner.Prune.pr_model);
        Printf.printf "\npredicted ranking (top %d of %d):\n" (min top o.Tuner.Prune.pr_total)
          o.Tuner.Prune.pr_total;
        List.iteri
          (fun i (desc, pred_s) ->
            if i < top then Printf.printf "  %2d. %-28s %.4f ms predicted\n" (i + 1) desc (pred_s *. 1000.0))
          o.Tuner.Prune.pr_ranked;
        Printf.printf
          "\nraced %d at the reduced shape (%d without a reduced twin); %d survivor(s): %s\n"
          o.Tuner.Prune.pr_raced o.Tuner.Prune.pr_reduced_missing
          (List.length o.Tuner.Prune.pr_survivors)
          (String.concat ", " o.Tuner.Prune.pr_survivors);
        Printf.printf "fully simulated %d of %d (%.1f%%)\n" o.Tuner.Prune.pr_simulated
          o.Tuner.Prune.pr_total
          (100.0 *. float_of_int o.Tuner.Prune.pr_simulated /. float_of_int o.Tuner.Prune.pr_total);
        Printf.printf "winner: %s  (%.4f ms simulated)\n"
          o.Tuner.Prune.pr_winner.Tuner.Measure.cand.desc
          (o.Tuner.Prune.pr_winner.Tuner.Measure.time_s *. 1000.0);
        winner_line arch o.Tuner.Prune.pr_winner;
        if store_file <> None then begin
          let s = Tuner.Measure.sum [ Tuner.Measure.stats engine; o.Tuner.Prune.pr_reduced_engine ] in
          Printf.printf "result store: %d hit(s), %d miss(es)\n" s.store_hits s.store_misses
        end);
    Cmd.Exit.ok
  in
  command "predict" ~doc
    Term.(
      const run $ app_arg $ jobs_arg $ quick_arg $ store_arg $ arch_arg $ rules_flag $ budget_arg
      $ top_arg)

let chaos_cmd =
  let doc =
    "Prove the tuner's fault tolerance on an application: inject deterministic failures \
     (crashing thunks, watchdog-caught runaway kernels, corrupt passes) into the space, check \
     that every fault is reported and the search still finds the true optimum among the \
     survivors, then stop a store-backed sweep partway and check that resuming it from the \
     store reproduces the uninterrupted result exactly.  Exits nonzero if any check fails."
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Victim-selection seed.")
  in
  let faults_arg =
    let doc =
      "Number of faults to inject: 0 or more, and at most the candidates eligible as victims \
       (the valid ones, outside the fault-free Pareto subset unless $(b,--hit-frontier))."
    in
    Arg.(value & opt (int_in 0) 5 & info [ "faults" ] ~docv:"N" ~doc)
  in
  let hit_frontier_arg =
    Arg.(
      value & flag
      & info [ "hit-frontier" ]
          ~doc:
            "Let faults land on the fault-free run's Pareto-selected subset too.  Killing \
             frontier members legitimately changes what the pruned search selects, so the \
             strict selection-unchanged checks are skipped in this mode (the exhaustive-optimum \
             and resume checks still apply).")
  in
  let run (e : Apps.Registry.entry) jobs quick seed nfaults hit_frontier =
    let cands = (space ~jobs e ~quick ~rules:false Gpu.Arch.g80).cands in
    let failures = ref 0 in
    let check name ok =
      if not ok then incr failures;
      Printf.printf "CHECK %-52s %s\n" name (if ok then "ok" else "FAIL")
    in
    let fault_key ((c : Tuner.Candidate.t), f) = (c.desc, Tuner.Fault.to_journal f) in
    let times ms = List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) ms in
    (* Fault-free baseline: the ground truth the injected runs must
       still recover on the surviving part of the space. *)
    let baseline = Tuner.Search.run ~jobs ~app_name:e.name cands in
    Printf.printf "baseline: %d valid configurations, optimum %s (%.4f ms)\n" baseline.space_size
      baseline.best.cand.desc
      (baseline.best.time_s *. 1000.0);
    (* Injected sweep.  By default victims are drawn outside the
       fault-free Pareto-selected subset: faults that miss the frontier
       provably leave the pruned selection unchanged, which is what the
       strict checks below assert. *)
    let avoid =
      if hit_frontier then []
      else List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) baseline.selected
    in
    match Tuner.Chaos.inject ~seed ~count:nfaults ~avoid cands with
    | exception Tuner.Chaos.Too_many_faults { requested; eligible } ->
      usage "--faults %d: only %d candidate(s) are eligible as victims" requested eligible
    | injected_cands, injections ->
    List.iter
      (fun (inj : Tuner.Chaos.injection) ->
        Printf.printf "inject %-12s -> %s\n" (Tuner.Chaos.kind_name inj.inj_kind) inj.inj_desc)
      injections;
    let r = Tuner.Search.run ~jobs ~app_name:e.name injected_cands in
    Printf.printf "\n%d fault(s) recorded:\n" (List.length r.faults);
    print_string (Tuner.Report.fault_table r.faults);
    Printf.printf "\n";
    let injected_descs =
      List.sort compare (List.map (fun (i : Tuner.Chaos.injection) -> i.inj_desc) injections)
    in
    check "every injected candidate is reported as a fault"
      (List.sort compare (List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) r.faults)
      = injected_descs);
    check "each fault carries its injected kind's tag"
      (List.for_all
         (fun (inj : Tuner.Chaos.injection) ->
           match
             List.find_opt (fun ((c : Tuner.Candidate.t), _) -> c.desc = inj.inj_desc) r.faults
           with
           | Some (_, f) -> Tuner.Fault.tag f = Tuner.Chaos.expected_tag inj.inj_kind
           | None -> false)
         injections);
    (* The true optimum of the surviving space, from the baseline's
       measurements (deterministic, so exact comparison is fair). *)
    let surviving_best =
      List.filter
        (fun (m : Tuner.Search.measured) -> not (List.mem m.cand.desc injected_descs))
        baseline.exhaustive
      |> List.fold_left
           (fun acc (m : Tuner.Search.measured) ->
             match acc with
             | Some (b : Tuner.Search.measured) when b.time_s <= m.time_s -> acc
             | _ -> Some m)
           None
    in
    (match surviving_best with
    | None -> check "some candidate survived" false
    | Some sb ->
      check "exhaustive optimum over survivors is exact"
        (r.best.cand.desc = sb.cand.desc && r.best.time_s = sb.time_s));
    let sel_descs (res : Tuner.Search.result) =
      List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) res.selected
    in
    if hit_frontier then
      Printf.printf "(frontier hits allowed: optimum on curve: %s)\n"
        (if r.optimum_selected then "yes" else "no")
    else begin
      check "faults off the frontier leave the selection unchanged"
        (sel_descs r = sel_descs baseline);
      check "pruned search still picks the fault-free choice"
        (r.selected_best.cand.desc = baseline.selected_best.cand.desc
        && r.selected_best.time_s = baseline.selected_best.time_s
        && r.optimum_selected = baseline.optimum_selected)
    end;
    (* Kill-and-resume: cancel the injected sweep over a fresh store
       once half the space has settled, resume with a fresh sweep of
       the unwrapped candidates against the same store, and demand the
       merged result equals the uninterrupted one.  With --jobs > 1
       the thunks in flight at the kill settle too, so the store's
       entry count is what the resume must skip. *)
    let tmp = Filename.temp_file "gpuopt-chaos-" ".store" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let nvalid = r.space_size in
        let k = max 1 (nvalid / 2) in
        let cancel = Tuner.Cancel.create () in
        let killed = Tuner.Chaos.kill_after ~cancel k injected_cands in
        let store = Tuner.Store.open_ ~file:tmp () in
        let stopped =
          match Tuner.Search.run ~jobs ~cancel ~store ~app_name:e.name killed with
          | (_ : Tuner.Search.result) -> false
          | exception Tuner.Cancel.Cancelled -> true
        in
        let settled = Tuner.Store.entries store in
        Tuner.Store.close store;
        Printf.printf "\nkilled after %d of %d outcome(s): %d settled in the store\n" k nvalid
          settled;
        check "sweep stops once k outcomes have settled" (stopped && settled >= k);
        let store = Tuner.Store.open_ ~file:tmp () in
        let resumed =
          Fun.protect
            ~finally:(fun () -> Tuner.Store.close store)
            (fun () -> Tuner.Search.run ~jobs ~store ~app_name:e.name injected_cands)
        in
        check "resumed sweep skips the stored measurements"
          (resumed.engine.measure_runs = nvalid - settled);
        check "resumed result equals the uninterrupted one"
          (times resumed.exhaustive = times r.exhaustive
          && List.map fault_key resumed.faults = List.map fault_key r.faults
          && resumed.best.cand.desc = r.best.cand.desc
          && resumed.best.time_s = r.best.time_s
          && resumed.selected_best.cand.desc = r.selected_best.cand.desc
          && resumed.selected_eval_time = r.selected_eval_time
          && resumed.reduction = r.reduction));
    if !failures > 0 then Printf.printf "\n%d check(s) FAILED\n" !failures
    else Printf.printf "\nall checks passed\n";
    `Ok (verdict (!failures = 0) "chaos: %s: %d check(s) failed" e.name !failures)
  in
  command "chaos" ~doc
    Term.(
      ret (const run $ app_arg $ jobs_arg $ quick_arg $ seed_arg $ faults_arg $ hit_frontier_arg))

let tune_cmd =
  let doc =
    "Run the paper's methodology: compile the whole space, compute the static metrics, measure \
     only the Pareto-optimal subset, report the chosen configuration."
  in
  let run (e : Apps.Registry.entry) jobs quick store_file arch rules =
    let tune store arch =
      let sp = space ?store ~jobs e ~quick ~rules arch in
      ( sp.cands,
        Tuner.Search.tune_full ~jobs ?store ~store_scale:(store_scale quick) ~app_name:e.name
          sp.cands )
    in
    match arch with
    | None ->
      with_store store_file (fun store ->
          List.iter
            (fun arch -> winner_line arch (snd (tune store arch)).Tuner.Search.chosen)
            Gpu.Arch.archs);
      Cmd.Exit.ok
    | Some arch ->
      let cands, tuned = with_store store_file (fun store -> tune store arch) in
      let best = tuned.Tuner.Search.chosen and selected = tuned.Tuner.Search.considered in
      Printf.printf "space: %d configurations, measured only %d (%.0f%% pruned)\n"
        (List.length (List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands))
        (List.length selected)
        (100.0
        *. (1.0
           -. float_of_int (List.length selected)
              /. float_of_int
                   (List.length (List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands))));
      List.iter
        (fun ((c : Tuner.Candidate.t), (m : Tuner.Metrics.t)) ->
          Printf.printf "  candidate %-28s eff=%.3e util=%8.1f\n" c.desc m.efficiency m.utilization)
        selected;
      Printf.printf "chosen: %s (%.4f ms simulated)\n" best.cand.desc (best.time_s *. 1000.0);
      winner_line arch best;
      if store_file <> None then
        Printf.printf "result store: %d hit(s), %d miss(es)\n" tuned.tune_engine.store_hits
          tuned.tune_engine.store_misses;
      Cmd.Exit.ok
  in
  command "tune" ~doc
    Term.(const run $ app_arg $ jobs_arg $ quick_arg $ store_arg $ arch_or_all_arg $ rules_flag)

let inspect_cmd =
  let doc =
    "Describe an application's optimization space (axes, constraints, cardinality); with \
     $(b,--trace), compile one configuration through the verified pipeline and print per-pass \
     statistics."
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"DESC"
          ~doc:"Configuration to trace, by description (default: the space's first point).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Compile one configuration and print the pass trace.")
  in
  let run (e : Apps.Registry.entry) config trace =
    (* The configuration to compile, if any: an unknown --config is
       refused before anything prints. *)
    let stats = ref [] in
    let compiled =
      if not (trace || config <> None) then Ok None
      else
        let desc = match config with Some d -> d | None -> List.hd (Lazy.force e.configs) in
        Result.map (fun c -> Some (desc, c)) (e.compile ~hook:(fun s -> stats := s :: !stats) desc)
    in
    match compiled with
    | Error msg -> usage "%s" msg
    | Ok compiled ->
      Printf.printf "%s — %s\n\n" e.display e.title;
      print_string
        (Tuner.Report.table [ "Axis"; "Values" ]
           (List.map
              (fun (a : Tuner.Space.axis_info) ->
                [ a.axis_name; String.concat ", " a.axis_values ])
              e.axes));
      List.iter (Printf.printf "constraint: %s\n") e.constraints;
      Printf.printf "%d configurations\n" e.cardinality;
      (match compiled with
      | None -> ()
      | Some (desc, c) when trace ->
        Printf.printf "\ntrace of %s:\n" desc;
        print_string (Tuner.Pipeline.trace_table (List.rev !stats));
        Printf.printf "\ninstruction classes:\n";
        print_string
          (Tuner.Report.table
             [ "Class"; "Static"; "Dynamic/thread" ]
             (List.map
                (fun (r : Ptx.Count.class_row) ->
                  [ r.class_name; string_of_int r.static_count;
                    Printf.sprintf "%.0f" r.dynamic_count ])
                (Ptx.Count.class_breakdown c.ptx)));
        Printf.printf "\n%d instructions, %d regs/thread, %d bytes smem/block\n"
          (Ptx.Prog.static_size c.ptx) c.resource.regs_per_thread c.resource.smem_bytes_per_block
      | Some (desc, c) ->
        Printf.printf "\n%s: %d instructions, %d regs/thread, %d bytes smem/block\n" desc
          (Ptx.Prog.static_size c.ptx) c.resource.regs_per_thread c.resource.smem_bytes_per_block);
      `Ok Cmd.Exit.ok
  in
  command "inspect" ~doc Term.(ret (const run $ app_arg $ config_arg $ trace_arg))

let lint_cmd =
  let doc =
    "Statically analyze an application's memory accesses on a quick-scale launch: affine \
     per-site coalescing and bank-conflict predictions, a shared-memory race check and \
     divergent-barrier detection.  Exits nonzero if a race or divergent barrier is found.  \
     $(b,--crossval) additionally diffs every static prediction against the simulator's \
     per-site counters; $(b,--mutate) injects a classic bug first (for demonstration)."
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"DESC"
          ~doc:"Configuration to analyze, by description (default: the space's first point).")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some (enum [ ("race", `Race); ("bank", `Bank) ])) None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            "Analyze a deliberately broken variant: $(b,race) drops a barrier, $(b,bank) \
             transposes a shared-memory store.")
  in
  let crossval_arg =
    Arg.(
      value & flag
      & info [ "crossval" ]
          ~doc:"Cross-validate static predictions against the simulator's dynamic counters.")
  in
  (* The kernel --mutate asks for, if any, or why [wb]'s kernel has
     none: [`Race] drops an interior barrier when there is one (the
     classic tile-loop race), else the only one; [`Bank] transposes the
     stores to the first shared array. *)
  let mutant (wb : Apps.Workbench.t) kind : (Kir.Ast.kernel option, string) result =
    let k = wb.Apps.Workbench.wb_kernel in
    let apply m = try Ok (Some (m k)) with Kir.Mutate.Mutate_error msg -> Error msg in
    match kind with
    | None -> Ok None
    | Some `Race -> (
      match apply (Kir.Mutate.drop_sync ~index:1) with
      | Ok _ as interior -> interior
      | Error _ -> apply (Kir.Mutate.drop_sync ~index:0))
    | Some `Bank -> (
      match k.Kir.Ast.shared_decls with
      | (arr, _) :: _ -> apply (Kir.Mutate.transpose_store ~array:arr)
      | [] -> Error (wb.Apps.Workbench.wb_app ^ " uses no shared memory; nothing to mutate"))
  in
  let run (e : Apps.Registry.entry) config mutate crossval arch =
    match e.workbench ~arch ?config () with
    | Error msg -> usage "%s" msg
    | Ok wb -> (
      match mutant wb mutate with
      | Error msg -> usage "--mutate: %s" msg
      | Ok mutant ->
        let report =
          match mutant with
          | None -> Apps.Workbench.lint wb
          | Some k -> Apps.Workbench.lint_mutant wb (fun _ -> k)
        in
        print_string (Analysis.Lint.render report);
        (* Dead-store lint ([Ptx.Liveness.dead_defs]): instructions whose
           defined register is dead on every path out of their position.
           The raw lowering is reported as a count (DCE will remove
           those); anything still dead in the *optimized* kernel is a
           wasted issue slot and is listed instruction by instruction. *)
        let lowered = Kir.Lower.lower wb.Apps.Workbench.wb_kernel in
        let dead_lowered = Ptx.Liveness.dead_defs lowered in
        if dead_lowered <> [] then
          Printf.printf "dead stores: %d in the raw lowering (removed by dce)\n"
            (List.length dead_lowered);
        let dead =
          Ptx.Liveness.dead_defs wb.Apps.Workbench.wb_compiled.Tuner.Pipeline.ptx
        in
        if dead = [] then Printf.printf "dead stores: none in the optimized kernel\n"
        else begin
          Printf.printf "dead stores: %d survive optimization (wasted issue slots):\n"
            (List.length dead);
          List.iter
            (fun (label, j, i) -> Printf.printf "  %s[%d]: %s\n" label j (Ptx.Pp.instr i))
            dead
        end;
        if crossval then begin
          Printf.printf "\ncross-validation against the simulator:\n";
          print_string (Analysis.Crossval.render (Apps.Workbench.crossval wb report))
        end;
        `Ok
          (verdict
             (not (Analysis.Lint.has_errors report))
             "lint: %s: %d race(s), %d divergent barrier(s)" report.r_name
             (List.length report.r_races.findings)
             (List.length report.r_divergent)))
  in
  command "lint" ~doc
    Term.(ret (const run $ app_arg $ config_arg $ mutate_arg $ crossval_arg $ arch_arg))

let file_arg =
  Arg.(
    required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc:"minicuda source file")

(* The single-kernel commands run [f] on the user's source: what it
   gets wrong fails about FILE.  Lexer and parser errors carry their
   line; what compiling or simulating raises is classified the way the
   tuner classifies a candidate's failure, and only a crash (a bug, or
   an OS error the boundary reports itself) escapes as it is. *)
let kernel_input ~cmd ~file f =
  match f () with
  | v -> v
  | exception (Minicuda.Lexer.Error { line; msg } | Minicuda.Parser.Error { line; msg }) ->
    fail "%s: %s: line %d: %s" cmd file line msg
  | exception e -> (
    let bt = Printexc.get_raw_backtrace () in
    match Tuner.Fault.classify ~backtrace:"" e with
    | Tuner.Fault.Worker_crash _ -> Printexc.raise_with_backtrace e bt
    | fault -> fail "%s: %s: %s" cmd file (Tuner.Fault.to_string fault))

let compile_cmd =
  let doc = "Compile a minicuda file to the PTX-like ISA and report resources and profile." in
  let run file =
    kernel_input ~cmd:"compile" ~file @@ fun () ->
    List.iter
      (fun k ->
        let c = Tuner.Pipeline.lower_opt k in
        print_string (Ptx.Pp.kernel c.ptx);
        Format.printf "// %a@." Ptx.Resource.pp c.resource;
        let prof = c.profile in
        Printf.printf
          "// profile: %.0f dynamic instrs/thread, %.0f regions, %.0f barriers, %.0f bytes \
           off-chip/thread\n\n"
          prof.instr prof.regions prof.barriers prof.global_bytes)
      (Minicuda.Parser.parse_file file);
    Cmd.Exit.ok
  in
  command "compile" ~doc Term.(const run $ file_arg)

let run_cmd =
  let doc =
    "Compile a single-kernel minicuda file and simulate it.  Buffers named with --buf are \
     zero-initialized (or ramp-initialized with --ramp) and the first words of each are printed \
     after the run."
  in
  let grid = Arg.(value & opt (pair ~sep:'x' int int) (1, 1) & info [ "grid" ] ~docv:"GXxGY") in
  let block = Arg.(value & opt (pair ~sep:'x' int int) (32, 1) & info [ "block" ] ~docv:"BXxBY") in
  let bufs =
    (* The G80's 768 MB of global memory (Table 1), in 32-bit words. *)
    let max_words = 768 * 1024 * 1024 / 4 in
    let doc =
      Printf.sprintf "allocate array parameter NAME as WORDS 32-bit words, WORDS in 1..%d" max_words
    in
    Arg.(
      value
      & opt_all (pair ~sep:'=' string (int_in ~max:max_words 1)) []
      & info [ "buf" ] ~docv:"NAME=WORDS" ~doc)
  in
  let ramps =
    Arg.(value & opt_all string [] & info [ "ramp" ] ~docv:"NAME" ~doc:"initialize NAME to 0,1,2,...")
  in
  let ints = Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "int" ] ~docv:"NAME=V") in
  let floats =
    Arg.(value & opt_all (pair ~sep:'=' string float) [] & info [ "float" ] ~docv:"NAME=V")
  in
  let show =
    Arg.(
      value
      & opt (int_in 0) 8
      & info [ "show" ] ~docv:"N" ~doc:"words of output to print, 0 or more")
  in
  let run file (gx, gy) (bx, by) bufs ramps ints floats show =
    kernel_input ~cmd:"run" ~file @@ fun () ->
    let kir =
      match Minicuda.Parser.parse_file file with
      | k :: _ -> k
      | [] -> fail "run: %s: no kernel to run" file
    in
    let ptx = (Tuner.Pipeline.lower_opt kir).ptx in
    let dev = Gpu.Device.create () in
    let buffers =
      List.map
        (fun (name, words) ->
          let space =
            match List.find_opt (fun (a : Kir.Ast.array_param) -> a.aname = name) kir.array_params with
            | Some a -> a.aspace
            | None -> fail "run: %s: kernel %s has no array parameter %S" file kir.kname name
          in
          let b =
            match space with
            | Kir.Ast.Const -> (
              try Gpu.Device.alloc_const dev words with Failure msg -> fail "run: %s: %s" file msg)
            | _ -> Gpu.Device.alloc dev words
          in
          if List.mem name ramps then
            Gpu.Device.to_device dev b (Array.init words float_of_int);
          (name, b))
        bufs
    in
    let args =
      List.map (fun (n, b) -> (n, Gpu.Sim.Buf b)) buffers
      @ List.map (fun (n, v) -> (n, Gpu.Sim.I v)) ints
      @ List.map (fun (n, v) -> (n, Gpu.Sim.F v)) floats
    in
    let launch = { Gpu.Sim.kernel = ptx; grid = (gx, gy); block = (bx, by); args } in
    (* The timing pass executes its blocks too; it runs on a copy so
       the printed buffers hold exactly one functional execution. *)
    let stats =
      Gpu.Sim.run
        ~mode:(Gpu.Sim.Timing { max_blocks = Gpu.Sim.default_max_blocks })
        (Gpu.Device.clone dev) launch
    in
    ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional dev launch);
    Printf.printf
      "simulated %.0f cycles = %.4f ms  (B_SM=%d, %d regs/thread, %d gmem transactions)\n"
      stats.cycles (stats.time_s *. 1000.0) stats.occupancy.blocks_per_sm stats.regs_per_thread
      stats.gmem_transactions;
    List.iter
      (fun (name, b) ->
        let data = Gpu.Device.of_device dev b in
        let n = min show (Array.length data) in
        Printf.printf "%s[0..%d] =" name (n - 1);
        for i = 0 to n - 1 do
          Printf.printf " %g" data.(i)
        done;
        print_newline ())
      buffers;
    Cmd.Exit.ok
  in
  command "run" ~doc
    Term.(const run $ file_arg $ grid $ block $ bufs $ ramps $ ints $ floats $ show)

(* ------------------------------------------------------------------ *)
(* Tuning service                                                      *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(value & opt string "gpuopt.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let doc =
    "Run the tuning service: a daemon answering tune/explore/lint requests over a \
     length-prefixed JSON protocol on a Unix-domain socket, with every measurement backed by a \
     persistent content-addressed store — no (kernel x space x arch) point is ever measured \
     twice, by any client, in any session.  Stop it with $(b,gpuopt request shutdown)."
  in
  let store_arg =
    let doc =
      "Content-addressed result store file (created if absent; appended atomically; corrupt \
       entries are rejected and skipped on load)."
    in
    Arg.(value & opt string "gpuopt.store" & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let conns_arg =
    (* The most that fit at --jobs 1. *)
    let max_conns = (Util.Pool.max_domains - 1) / 2 in
    let doc =
      Printf.sprintf
        "Connection-worker domains (concurrent requests in flight), 1 to %d.  Each may run a pool \
         of $(b,--jobs) measurement domains, and the runtime allows %d domains in all."
        max_conns Util.Pool.max_domains
    in
    Arg.(value & opt (int_in ~max:max_conns 1) 4 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      Printf.sprintf
        "%s  Here the daemon's domains, 1 + $(b,--conns) x (1 + N), may not exceed %d, and the \
         default is lowered to fit."
        jobs_doc Util.Pool.max_domains
    in
    Arg.(
      value
      & opt (some (int_in ~max:Util.Pool.max_jobs 1)) None
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let durable_arg =
    let doc =
      "fsync the store after every appended record: a machine crash (not just a process crash) \
       loses no completed measurement, at the cost of one disk sync per new store entry."
    in
    Arg.(value & flag & info [ "durable" ] ~doc)
  in
  let run socket store_file conns jobs durable =
    (* The daemon's domains, the main one and [conns] connection workers
       that may each spawn [jobs] measurement domains, fit the runtime's
       limit while [jobs <= fit]. *)
    let fit = ((Util.Pool.max_domains - 1) / conns) - 1 in
    match jobs with
    | Some jobs when jobs > fit ->
      usage "--jobs %d with --conns %d needs %d domains; the runtime allows %d" jobs conns
        (1 + (conns * (1 + jobs))) Util.Pool.max_domains
    | _ ->
    let jobs = Option.value jobs ~default:(min fit (Util.Pool.default_jobs ())) in
    (* Before the store opens: a refused socket path leaves no new file. *)
    Tuner.Serve.claim_socket socket;
    let store = open_store ~durable store_file in
    let server = Tuner.Serve.create ~jobs ~store (Apps.Serving.resolver ()) in
    Printf.printf "gpuopt serve: listening on %s (store %s: %d entr%s loaded, %d conn worker(s), \
                   %d measurement job(s))\n%!"
      socket store_file
      (Tuner.Store.loaded store)
      (if Tuner.Store.loaded store = 1 then "y" else "ies")
      conns jobs;
    (* SIGTERM (systemd stop, timeout(1), an operator's kill) drains
       gracefully: in-flight sweeps finish, their results reach the
       store, then the daemon exits through the normal path below. *)
    Tuner.Serve.listen ~conn_workers:conns ~on_sigterm:true server ~socket ();
    let s = Tuner.Serve.stats server in
    Tuner.Store.close store;
    Printf.printf
      "gpuopt serve: shut down after %d request(s) (%d error(s)); %d simulator run(s), %d store \
       hit(s), %d entr%s in %s\n"
      s.sv_requests s.sv_errors s.sv_runs s.sv_store_hits s.sv_store_entries
      (if s.sv_store_entries = 1 then "y" else "ies")
      store_file;
    `Ok Cmd.Exit.ok
  in
  command "serve" ~doc
    Term.(ret (const run $ socket_arg $ store_arg $ conns_arg $ jobs_arg $ durable_arg))

let request_cmd =
  let doc =
    "Send one request to a running $(b,gpuopt serve) daemon and print the reply.  Verbs: \
     $(b,ping), $(b,stats), $(b,tune) $(i,APP), $(b,explore) $(i,APP), $(b,lint) $(i,APP), \
     $(b,shutdown).  Exits nonzero if the server answers with an error."
  in
  let verb_arg =
    let verbs = [ "ping"; "stats"; "tune"; "explore"; "lint"; "shutdown" ] in
    let parse s = if List.mem s verbs then Ok s else Error (`Msg ("unknown verb " ^ s)) in
    Arg.(
      required
      & pos 0 (some (conv (parse, Format.pp_print_string))) None
      & info [] ~docv:"VERB" ~doc:"ping | stats | tune | explore | lint | shutdown")
  in
  let req_app_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"APP" ~doc:"Application name")
  in
  let scale_arg =
    let parse s =
      match Tuner.Proto.scale_of_name s with
      | Some sc -> Ok sc
      | None -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|bench|full)" s))
    in
    Arg.(
      value
      & opt (conv (parse, fun fmt s -> Format.pp_print_string fmt (Tuner.Proto.scale_name s)))
          Tuner.Proto.Quick
      & info [ "scale" ] ~docv:"SCALE" ~doc:"Problem scale: quick, bench or full.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some (pair ~sep:',' int int)) None
      & info [ "chaos" ] ~docv:"SEED,COUNT"
          ~doc:
            "Inject $(i,COUNT) seeded faults into the explore sweep (server-side, store \
             bypassed).")
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"DESC" ~doc:"Configuration for lint, by description.")
  in
  let print_row tag (r : Tuner.Proto.measured_row) =
    Printf.printf "%s %s  (%.4f ms simulated)\n" tag r.m_desc (r.m_time_s *. 1000.0)
  in
  let run socket verb app scale chaos config arch predict deadline_ms retries =
    let req =
      match (verb, app) with
      | "ping", _ -> Some Tuner.Proto.Ping
      | "stats", _ -> Some Tuner.Proto.Stats
      | "shutdown", _ -> Some Tuner.Proto.Shutdown
      | "tune", Some app -> Some (Tuner.Proto.Tune { app; scale; arch; deadline_ms })
      | "explore", Some app ->
        let chaos =
          Option.map (fun (ch_seed, ch_count) -> { Tuner.Proto.ch_seed; ch_count }) chaos
        in
        Some (Tuner.Proto.Explore { app; scale; chaos; arch; predict; deadline_ms })
      | "lint", Some app -> Some (Tuner.Proto.Lint { app; config })
      | _ -> None (* tune, explore or lint without APP: [verb_arg] admits no other verb *)
    in
    match req with
    | None -> usage "request %s: missing APP argument" verb
    | Some req -> (
      Tuner.Serve.ignore_sigpipe ();
      match Tuner.Serve.call ~retries ~socket req with
      | Error msg -> fail "request: %s (is `gpuopt serve --socket %s` running?)" msg socket
      | Ok resp ->
        `Ok
          (match resp with
          | Tuner.Proto.Pong ->
            print_endline "pong";
            Cmd.Exit.ok
          | Tuner.Proto.Bye ->
            print_endline "server shutting down";
            Cmd.Exit.ok
          | Tuner.Proto.Stats_r s ->
            Printf.printf
              "requests %d (errors %d)\nsimulator runs %d\nstore: %d hit(s), %d miss(es), %d \
               entr%s\n"
              s.sv_requests s.sv_errors s.sv_runs s.sv_store_hits s.sv_store_misses
              s.sv_store_entries
              (if s.sv_store_entries = 1 then "y" else "ies");
            Cmd.Exit.ok
          | Tuner.Proto.Tune_r t ->
            Printf.printf
              "space: %d configurations on %s, measured only %d (%d run(s), %d store hit(s))\n"
              t.t_space_size t.t_arch (List.length t.t_selected) t.t_runs t.t_store_hits;
            print_row "chosen:" t.t_chosen;
            Cmd.Exit.ok
          | Tuner.Proto.Explore_r x ->
            Printf.printf
              "space: %d valid configurations (%d invalid) on %s, %d fault(s)\nreduction \
               %.1f%%, optimum %sselected (%d run(s), %d store hit(s))\n"
              x.x_space_size x.x_invalid x.x_arch (List.length x.x_faults)
              (100.0 *. x.x_reduction)
              (if x.x_optimum_selected then "" else "NOT ")
              x.x_runs x.x_store_hits;
            print_row "true optimum: " x.x_best;
            print_row "pruned search:" x.x_selected_best;
            (match x.x_prune with
            | None -> ()
            | Some p ->
              Printf.printf
                "model race: %d probe(s) + %d survivor(s) = %d of %d fully simulated (%.1f%%), \
                 %d raced; optimum predicted rank %s; %s\n"
                p.p_probes
                (p.p_simulated - p.p_probes)
                p.p_simulated p.p_total
                (100.0 *. float_of_int p.p_simulated /. float_of_int p.p_total)
                p.p_raced
                (if p.p_rank > 0 then Printf.sprintf "%d/%d" p.p_rank p.p_total else "-")
                (if p.p_recovered then "optimum recovered" else "optimum MISSED");
              print_row "race winner:  " p.p_winner;
              Printf.printf "model %s\n" p.p_model);
            List.iter
              (fun (f : Tuner.Proto.fault_row) ->
                Printf.printf "fault: %s: %s\n" f.f_desc f.f_fault)
              x.x_faults;
            Cmd.Exit.ok
          | Tuner.Proto.Lint_r { l_report; l_errors } ->
            print_string l_report;
            verdict (not l_errors) "request: the lint report has errors"
          | Tuner.Proto.Overloaded_r { o_retry_after_ms } ->
            fail "server overloaded: retry after %d ms (or pass --retries)" o_retry_after_ms
          | Tuner.Proto.Error_r { e_code; e_msg } ->
            fail "server error [%s]: %s" (Tuner.Proto.error_code_name e_code) e_msg))
  in
  let req_arch_arg =
    let doc = "Target machine model for tune/explore, by registry name (server-validated)." in
    Arg.(value & opt (some string) None & info [ "arch" ] ~docv:"NAME" ~doc)
  in
  let req_predict_arg =
    let doc =
      "Ask the server to also run the model-driven race on an explore request and report its \
       pruning ratio and winner (ignored with $(b,--chaos))."
    in
    Arg.(value & flag & info [ "predict" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Deadline in milliseconds (0 or more) for tune/explore: the server abandons the sweep at \
       the next candidate boundary past the deadline and answers with a typed \
       $(i,deadline-exceeded) error.  Measurements completed before the cutoff are stored, so a \
       retry resumes from them."
    in
    Arg.(value & opt (some (int_in 0)) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry transport failures and typed $(i,overloaded) sheds up to $(i,N) times (0 or more) \
       with jittered exponential backoff.  Safe: measurements are content-addressed, so a \
       retried sweep never repeats completed work."
    in
    Arg.(value & opt (int_in 0) 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  command "request" ~doc
    Term.(
      ret
        (const run $ socket_arg $ verb_arg $ req_app_arg $ scale_arg $ chaos_arg $ config_arg
       $ req_arch_arg $ req_predict_arg $ deadline_arg $ retries_arg))

let store_cmd =
  let doc =
    "Maintain a content-addressed result store file offline.  Verbs: $(b,fsck) $(i,FILE) \
     scans and reports valid / duplicate / corrupt records without modifying anything; \
     $(b,compact) $(i,FILE) rewrites the file down to its valid deduplicated records \
     (fsync + atomic rename) and reports the bytes reclaimed.  Run against a store no daemon \
     has open for writing."
  in
  let verb_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("fsck", `Fsck); ("compact", `Compact) ])) None
      & info [] ~docv:"VERB" ~doc:"fsck | compact")
  in
  let file_pos_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Store file to check.")
  in
  let print_report (r : Tuner.Store.fsck_report) =
    Printf.printf "%s: %d byte(s), %d record(s): %d valid, %d duplicate(s), %d corrupt\n"
      r.fs_file r.fs_bytes r.fs_records r.fs_valid r.fs_duplicates (List.length r.fs_corrupt);
    List.iter
      (fun (c : Tuner.Store.corrupt_line) ->
        Printf.printf "  line %d: %s\n" c.cl_line c.cl_reason)
      r.fs_corrupt
  in
  let run verb file =
    match verb with
    | `Fsck ->
      let r = Tuner.Store.fsck ~file in
      print_report r;
      Printf.printf "reclaimable: %d byte(s)\n" r.fs_reclaimable;
      (* Like fsck(8): nonzero exit when the file needs attention. *)
      verdict
        (r.fs_corrupt = [] && r.fs_duplicates = 0)
        "store: %s: %d corrupt, %d duplicate(s)" file (List.length r.fs_corrupt) r.fs_duplicates
    | `Compact ->
      let r, reclaimed = Tuner.Store.compact ~file in
      print_report r;
      Printf.printf "compacted: %d byte(s) reclaimed\n" reclaimed;
      Cmd.Exit.ok
  in
  command "store" ~doc Term.(const run $ verb_arg $ file_pos_arg)

(* ------------------------------------------------------------------ *)
(* Superoptimizer                                                      *)
(* ------------------------------------------------------------------ *)

let len_arg =
  let doc = "Maximum window length to enumerate (1 or 2)." in
  Arg.(value & opt (int_in ~max:2 1) 2 & info [ "len" ] ~docv:"N" ~doc)

let sweep_arg =
  let doc = "Random adversarial vectors per candidate pair in the bounded tier (0 or more)." in
  Arg.(value & opt (int_in 0) 128 & info [ "sweep" ] ~docv:"N" ~doc)

let superopt_params quick len sweep =
  if quick then (min len 1, min sweep 64) else (len, sweep)

let superopt_cmd =
  let doc =
    "Discover a verified peephole rule database for the target machine: enumerate short \
     canonical windows, propose cheaper rewrites, and push each pair through the equivalence \
     funnel (quick vectors, adversarial bounded sweep, exhaustive proof on narrow domains).  \
     With $(i,APP), additionally apply the database to the app's default configuration and \
     validate the result.  $(b,--quick) bounds discovery to single-instruction windows."
  in
  let opt_app_arg =
    Arg.(value & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Apply the rules to this app's kernel")
  in
  let run app jobs quick store_file arch len sweep =
    let max_len, sweep = superopt_params quick len sweep in
    let r =
      with_store store_file (fun store ->
          Tuner.Superopt.discover_cached ?store ~jobs ~arch ~max_len ~sweep ())
    in
    let open Tuner.Superopt in
    if r.cached then
      Printf.printf "%d rule(s) loaded from the store (arch %s)\n" (List.length r.rules)
        arch.Gpu.Arch.name
    else begin
      print_string (funnel_table r.funnel);
      let q, b, e = tier_counts r.rules in
      Printf.printf "\n%d rule(s) on %s: %d exhaustive, %d bounded, %d quick\n"
        (List.length r.rules) arch.Gpu.Arch.name e b q;
      if r.elapsed_s > 0.0 then
        Printf.printf "discovery: %.2fs, %.1f rules/s, %d pairs screened\n" r.elapsed_s
          (float_of_int (List.length r.rules) /. r.elapsed_s)
          r.funnel.fn_pairs
    end;
    Printf.printf "db digest: %s\n" (Ptx.Patterns.digest r.rules);
    match app with
    | None -> Cmd.Exit.ok
    | Some (e : Apps.Registry.entry) -> (
      (* The default configuration always exists. *)
      let wb = Result.get_ok (e.workbench ~arch ()) in
      (* Apply to the *raw lowering* of the app's default config — the
         optimized kernel has already been folded by [Ptx.Opt], the
         raw one still contains the patterns the rules target. *)
      let before = Kir.Lower.lower wb.Apps.Workbench.wb_kernel in
      let after, st = Ptx.Peephole.run_stats r.rules before in
      Printf.printf
        "\n%s %s: %d -> %d instructions, %d window(s) rewritten, %d blocked by liveness\n"
        e.name wb.Apps.Workbench.wb_config
        (Ptx.Prog.static_size before) (Ptx.Prog.static_size after)
        st.Ptx.Peephole.matched st.Ptx.Peephole.blocked;
      match Ptx.Verify.check after with
      | Error vs ->
        Printf.printf "verifier rejected the rewritten kernel:\n%s\n" (Ptx.Verify.report vs);
        fail "superopt: %s: the verifier rejected the rewritten kernel" e.name
      | Ok () -> (
        match Ptx.Equiv.validate before after with
        | Ok n ->
          Printf.printf "translation validation: ok (%d vectors)\n" n;
          Cmd.Exit.ok
        | Error m ->
          Printf.printf "translation validation FAILED: %s\n" (Ptx.Equiv.mismatch_to_string m);
          fail "superopt: %s: translation validation failed" e.name))
  in
  command "superopt" ~doc
    Term.(
      const run $ opt_app_arg $ jobs_arg $ quick_arg $ store_arg $ arch_arg $ len_arg $ sweep_arg)

let rules_cmd =
  let doc =
    "Print the verified rule database, one rule per line (proof tier, cycles saved, window => \
     replacement), then its digest — the line CI pins against drift.  Reads the database from \
     $(b,--store) when present, else discovers it."
  in
  let run jobs quick store_file arch len sweep =
    let max_len, sweep = superopt_params quick len sweep in
    let r =
      with_store store_file (fun store ->
          Tuner.Superopt.discover_cached ?store ~jobs ~arch ~max_len ~sweep ())
    in
    List.iter (fun rule -> print_endline (Ptx.Patterns.to_line rule)) r.Tuner.Superopt.rules;
    Printf.printf "%d rule(s), db digest: %s\n" (List.length r.Tuner.Superopt.rules)
      (Ptx.Patterns.digest r.Tuner.Superopt.rules);
    Cmd.Exit.ok
  in
  command "rules" ~doc
    Term.(const run $ jobs_arg $ quick_arg $ store_arg $ arch_arg $ len_arg $ sweep_arg)

(* ------------------------------------------------------------------ *)
(* The boundary                                                        *)
(* ------------------------------------------------------------------ *)

(* The one stderr line for a failure the command line or its inputs
   caused: the typed failures and OS errors.  Anything else is a bug. *)
let failure_line = function
  | Failed line -> Some line
  | Tuner.Store.Bad_file { file; reason } -> Some (Printf.sprintf "store: %s: %s" file reason)
  | Tuner.Serve.Bad_socket { socket; reason } -> Some (Printf.sprintf "serve: %s: %s" socket reason)
  | Tuner.Fault.Fail { desc; fault } ->
    Some (Printf.sprintf "fault in %s: %s" desc (Tuner.Fault.to_string fault))
  | Sys_error msg -> Some msg
  | Unix.Unix_error (e, fn, arg) ->
    Some (Printf.sprintf "%s: %s" (if arg = "" then fn else arg) (Unix.error_message e))
  | _ -> None

let () =
  let doc = "program optimization space pruning for a multithreaded GPU (CGO'08 reproduction)" in
  let info = Cmd.info "gpuopt" ~version:"1.0.0" ~doc ~exits in
  let gpuopt =
    Cmd.group info
      [
        arch_cmd; archs_cmd; explore_cmd; tune_cmd; predict_cmd; inspect_cmd; lint_cmd;
        compile_cmd; run_cmd; chaos_cmd; serve_cmd; request_cmd; store_cmd; superopt_cmd; rules_cmd;
      ]
  in
  exit
    (match Cmd.eval' ~catch:false gpuopt with
    | code -> code
    | exception e -> (
      let bt = Printexc.get_raw_backtrace () in
      match failure_line e with
      | Some line ->
        prerr_endline line;
        failed
      | None ->
        Printf.eprintf "gpuopt: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e) (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error))
