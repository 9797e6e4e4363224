(* Tuning matrix multiplication with the paper's methodology.

   Walks through exactly what section 5 of the paper does for its
   running example: enumerate the optimization space (tile size x
   rectangular tiling x unrolling x prefetching x spilling), compile
   every configuration, place each on the (efficiency, utilization)
   plane, keep the Pareto-optimal subset, and run only those — then
   compare with the ground truth from exhaustive measurement.

   Run with:  dune exec examples/tune_matmul.exe *)

let () =
  let shape = Apps.Matmul.bench in
  Printf.printf "Matrix multiplication, %dx%d, full optimization space\n\n" shape.n shape.n;
  let cands = Apps.Matmul.candidates shape in
  let valid = List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands in
  Printf.printf "%d configurations compiled (%d invalid)\n" (List.length cands)
    (List.length cands - List.length valid);

  (* Static characterization of a few interesting points. *)
  Printf.printf "\nStatic view of selected configurations:\n";
  List.iter
    (fun desc ->
      match List.find_opt (fun (c : Tuner.Candidate.t) -> c.desc = desc) valid with
      | Some c ->
        let m = Tuner.Metrics.of_candidate c in
        Printf.printf "  %-18s regs=%2d B_SM=%d instr=%6.0f eff=%.2e util=%7.1f\n" c.desc
          c.resource.regs_per_thread c.occupancy.blocks_per_sm c.profile.instr m.efficiency
          m.utilization
      | None -> ())
    [ "8x8/1x1/u1"; "16x16/1x1/u1"; "16x16/1x4/uC"; "16x16/1x4/uC/pf" ];

  (* The methodology: measure only the Pareto subset. *)
  let t0 = Sys.time () in
  let best, selected = Tuner.Search.tune ~app_name:"matmul" cands in
  Printf.printf "\nPruned search measured %d of %d configurations:\n" (List.length selected)
    (List.length valid);
  List.iter
    (fun ((c : Tuner.Candidate.t), _) -> Printf.printf "  measured %s\n" c.desc)
    selected;
  Printf.printf "chosen configuration: %s (%.4f ms simulated)\n" best.cand.desc
    (best.time_s *. 1000.0);
  Printf.printf "(host time for pruned search: %.1fs)\n" (Sys.time () -. t0);

  (* Ground truth. *)
  let r = Tuner.Search.run ~app_name:"matmul" cands in
  Printf.printf "\nGround truth (exhaustive): %s (%.4f ms)\n" r.best.cand.desc
    (r.best.time_s *. 1000.0);
  Printf.printf "pruning kept the optimum: %b (space reduction %.0f%%)\n" r.optimum_selected
    (r.reduction *. 100.0);

  (* And confirm the winner actually computes the right product. *)
  let cfg =
    Option.get
      (Tuner.Space.find ~describe:Apps.Matmul.describe Apps.Matmul.space r.best.cand.desc)
  in
  Printf.printf "functional validation of the winner: %b\n" (Apps.Matmul.validate Apps.Matmul.smoke cfg)
