(* Tests for the static memory-access analyzer: the affine domain
   against the reference interpreter (qcheck), cross-validation of the
   coalescing/bank predictions against the simulator's per-site
   counters on all four applications, the mutation-based checks for the
   race detector and bank-conflict lint, divergent-barrier detection,
   and the simulator counter-sum invariants. *)

open Kir.Ast

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Affine forms vs the reference interpreter                           *)
(* ------------------------------------------------------------------ *)

(* Random integer index expressions over tid/bid/params/constants.  The
   affine analysis of [Store A[e]] must agree with [Kir.Interp]'s
   concrete evaluation of [e] for every thread — whenever the analysis
   stays out of ⊤. *)
let gen_expr : expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Int n) (int_range (-8) 8);
        return tid_x;
        return tid_y;
        return bid_x;
        return bid_y;
        return (Param "n");
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           oneof
             [
               leaf;
               map2 (fun a b -> Bin (Add, a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Bin (Sub, a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a c -> Bin (Mul, a, Int c)) (self (n / 2)) (int_range (-4) 4);
               map2 (fun a c -> Bin (Mul, Int c, a)) (self (n / 2)) (int_range (-4) 4);
               map2 (fun a c -> Bin (Div, a, Int c)) (self (n / 2)) (int_range 1 4);
               map2 (fun a c -> Bin (Rem, a, Int c)) (self (n / 2)) (int_range 1 4);
               map2 (fun a c -> Bin (Min, a, Int c)) (self (n / 2)) (int_range (-8) 8);
               map2 (fun a c -> Bin (Max, a, Int c)) (self (n / 2)) (int_range (-8) 8);
               map (fun a -> Un (Neg, a)) (self (n - 1));
             ])

let rec expr_print (e : expr) : string =
  match e with
  | Int n -> string_of_int n
  | Special TidX -> "tx"
  | Special TidY -> "ty"
  | Special BidX -> "bx"
  | Special BidY -> "by"
  | Param p -> p
  | Bin (op, a, b) ->
    let o =
      match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%" | Min -> "min"
      | Max -> "max" | _ -> "?"
    in
    Printf.sprintf "(%s %s %s)" (expr_print a) o (expr_print b)
  | Un (Neg, a) -> Printf.sprintf "(- %s)" (expr_print a)
  | _ -> "<expr>"

let arbitrary_expr = QCheck.make ~print:expr_print gen_expr

(* Evaluate [e] with the reference interpreter for one thread. *)
let interp_eval ~tid_x:tx ~tid_y:ty ~bid_x:bx ~bid_y:by ~n (e : expr) : int =
  let c =
    {
      Kir.Interp.dev = Gpu.Device.create ~global_words:16 ();
      arrays = Hashtbl.create 1;
      scalars = Hashtbl.create 1;
      vars = Hashtbl.create 1;
      tid_x = tx;
      tid_y = ty;
      bid_x = bx;
      bid_y = by;
      bdim = (8, 4);
      gdim = (4, 2);
    }
  in
  Hashtbl.replace c.Kir.Interp.scalars "n" (Kir.Interp.VI n);
  Kir.Interp.as_i (Kir.Interp.eval c e)

let affine_vs_interp (e : expr) : bool =
  let n = 13 in
  let k =
    {
      kname = "aff";
      scalar_params = [ ("n", S32) ];
      array_params = [ { aname = "A"; aspace = Global } ];
      shared_decls = [];
      local_decls = [];
      body = [ Store ("A", e, f 0.0) ];
    }
  in
  match Analysis.Access.sites_of ~block:(8, 4) ~grid:(4, 2) ~params:[ ("n", n) ] k with
  | [ info ] -> (
    match info.Analysis.Access.i_index with
    | Analysis.Affine.Top _ -> true (* ⊤ is always sound *)
    | aff ->
      (* every thread of a couple of blocks *)
      List.for_all
        (fun (bid_x, bid_y) ->
          List.for_all
            (fun tid_y ->
              List.for_all
                (fun tid_x ->
                  let want = interp_eval ~tid_x ~tid_y ~bid_x ~bid_y ~n e in
                  match
                    Analysis.Affine.eval ~tid_x ~tid_y ~bid_x ~bid_y
                      ~loop:(fun _ -> assert false)
                      aff
                  with
                  | Some got -> got = want
                  | None -> false)
                [ 0; 1; 3; 7 ])
            [ 0; 1; 3 ])
        [ (0, 0); (3, 1) ])
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Cross-validation: all four applications                             *)
(* ------------------------------------------------------------------ *)

let wb_exn (r : (Apps.Workbench.t, string) result) : Apps.Workbench.t =
  match r with Ok wb -> wb | Error msg -> Alcotest.fail msg

let crossval_exact ?config ~expect_top name build () =
  let wb = wb_exn (build ?config ()) in
  let lint = Apps.Workbench.lint wb in
  let cv = Apps.Workbench.crossval wb lint in
  check_i (name ^ " mismatches") 0 cv.Analysis.Crossval.cv_mismatches;
  check_b (name ^ " has analyzable sites") true (cv.Analysis.Crossval.cv_checked > 0);
  check_i (name ^ " sites partition")
    cv.Analysis.Crossval.cv_total
    (cv.Analysis.Crossval.cv_checked + cv.Analysis.Crossval.cv_top);
  check_i (name ^ " top sites") expect_top cv.Analysis.Crossval.cv_top;
  (* shipped kernels are race-free with convergent barriers *)
  check_b (name ^ " race-free") false (Analysis.Lint.has_errors lint)

let verdicts_of (r : Analysis.Lint.report) (arr : string) (kind : [ `Load | `Store ]) =
  List.filter_map
    (fun (sr : Analysis.Lint.site_report) ->
      if sr.Analysis.Lint.sr_info.Analysis.Access.i_array = arr
         && sr.Analysis.Lint.sr_info.Analysis.Access.i_kind = kind
      then Some sr.Analysis.Lint.sr_verdict
      else None)
    r.Analysis.Lint.r_sites

let crossval_tests =
  [
    t "matmul default: static = dynamic on every site, none ⊤"
      (crossval_exact ?config:None ~expect_top:0 "matmul" (fun ?config () -> Apps.Matmul.workbench ?config Apps.Matmul.smoke));
    t "cp default: static = dynamic on every site, none ⊤"
      (crossval_exact ?config:None ~expect_top:0 "cp" (fun ?config () -> Apps.Cp.workbench ?config Apps.Cp.smoke));
    t "sad default: exact on analyzable sites, ⊤ sites reported"
      (crossval_exact ?config:None ~expect_top:4 "sad" (fun ?config () -> Apps.Sad.workbench ?config Apps.Sad.smoke));
    t "mri default: static = dynamic on every site, none ⊤"
      (crossval_exact ?config:None ~expect_top:0 "mri" (fun ?config () -> Apps.Mri_fhd.workbench ?config Apps.Mri_fhd.smoke));
    t "matmul 16x16 variant: still exact"
      (crossval_exact ~config:"16x16/1x1/u1" ~expect_top:0 "matmul16" (fun ?config () -> Apps.Matmul.workbench ?config Apps.Matmul.smoke));
    t "cp uncoalesced variant: still exact"
      (crossval_exact ~config:"b16x2/t2/unco" ~expect_top:0 "cp-unco" (fun ?config () -> Apps.Cp.workbench ?config Apps.Cp.smoke));
    t "matmul 8x8 tile: C store uncoalesced; 16x16 tile: coalesced" (fun () ->
        let v8 = verdicts_of (Apps.Workbench.lint (wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke))) "C" `Store in
        let v16 =
          verdicts_of
            (Apps.Workbench.lint (wb_exn (Apps.Matmul.workbench ~config:"16x16/1x1/u1" Apps.Matmul.smoke)))
            "C" `Store
        in
        check_b "8x8 uncoalesced" true
          (List.for_all (function Analysis.Lint.Uncoalesced _ -> true | _ -> false) v8
          && v8 <> []);
        check_b "16x16 coalesced" true
          (List.for_all (function Analysis.Lint.Coalesced _ -> true | _ -> false) v16
          && v16 <> []));
    t "cp uncoalesced config is flagged, coalesced is clean" (fun () ->
        let vco = verdicts_of (Apps.Workbench.lint (wb_exn (Apps.Cp.workbench Apps.Cp.smoke))) "V" `Store in
        let vun =
          verdicts_of
            (Apps.Workbench.lint (wb_exn (Apps.Cp.workbench ~config:"b16x2/t2/unco" Apps.Cp.smoke)))
            "V" `Store
        in
        check_b "coalesced clean" true
          (List.for_all (function Analysis.Lint.Coalesced _ -> true | _ -> false) vco && vco <> []);
        check_b "uncoalesced flagged" true
          (List.exists (function Analysis.Lint.Uncoalesced _ -> true | _ -> false) vun));
    t "cp atom loads broadcast from the constant cache" (fun () ->
        let r = Apps.Workbench.lint (wb_exn (Apps.Cp.workbench Apps.Cp.smoke)) in
        let vs = verdicts_of r "atoms" `Load in
        check_b "broadcast" true
          (List.for_all (function Analysis.Lint.Broadcast _ -> true | _ -> false) vs && vs <> []));
  ]

(* Every site's static and dynamic counters, pinned through an md5 of
   the rendered cross-validation: the exact tests above pin only the
   mismatch and ⊤ counts. *)
let crossval_md5 (cv : Analysis.Crossval.t) =
  Digest.to_hex (Digest.string (Analysis.Crossval.render cv))

let crossval_pins =
  let smoke name build want =
    t (Printf.sprintf "%s smoke crossval render md5" name) (fun () ->
        let wb = wb_exn (build ()) in
        Alcotest.(check string) name want
          (crossval_md5 (Apps.Workbench.crossval wb (Apps.Workbench.lint wb))))
  in
  let mutant name mutate want =
    t (Printf.sprintf "matmul %s mutant crossval render md5" name) (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        Alcotest.(check string) name want
          (crossval_md5 (Apps.Workbench.crossval wb (Apps.Workbench.lint_mutant wb mutate))))
  in
  [
    smoke "matmul" (fun () -> Apps.Matmul.workbench Apps.Matmul.smoke) "44c4f6756541cd1db49544ee686d1df6";
    smoke "cp" (fun () -> Apps.Cp.workbench Apps.Cp.smoke) "394e8d7ef75084f198f923ccdb018fc7";
    smoke "sad" (fun () -> Apps.Sad.workbench Apps.Sad.smoke) "10d11c37f6c0707fe9fe82c70d87d07f";
    smoke "mri" (fun () -> Apps.Mri_fhd.workbench Apps.Mri_fhd.smoke) "95c5423d10cfea7f04f1448db0f2dcf3";
    mutant "transposed-As" (Kir.Mutate.transpose_store ~array:"As") "4e4ad3554f0b03234967fc731b6ea867";
    (* A dropped barrier moves no site's counters: the render is the
       default's. *)
    mutant "dropped-sync" (Kir.Mutate.drop_sync ~index:1) "44c4f6756541cd1db49544ee686d1df6";
  ]

(* ------------------------------------------------------------------ *)
(* Mutants: bank conflicts and races                                   *)
(* ------------------------------------------------------------------ *)

let mutant_tests =
  [
    t "transposed As store has bank conflicts; crossval stays exact" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        let r = Apps.Workbench.lint_mutant wb (Kir.Mutate.transpose_store ~array:"As") in
        let vs = verdicts_of r "As" `Store in
        check_b "conflict flagged" true
          (List.exists
             (function
               | Analysis.Lint.Bank_conflict p -> p.Analysis.Bank.b_max_degree > 1
               | _ -> false)
             vs);
        let cv = Apps.Workbench.crossval wb r in
        check_i "mutant crossval mismatches" 0 cv.Analysis.Crossval.cv_mismatches;
        check_b "mutant replays predicted" true
          (List.exists
             (fun (d : Analysis.Crossval.site_diff) ->
               match d.Analysis.Crossval.d_static with
               | Ok c -> c.Analysis.Crossval.replays > 0
               | Error _ -> false)
             cv.Analysis.Crossval.cv_sites));
    t "barrier-dropped matmul mutant is flagged as racy" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        let r = Apps.Workbench.lint_mutant wb (Kir.Mutate.drop_sync ~index:1) in
        check_b "races found" true (r.Analysis.Lint.r_races.Analysis.Races.findings <> []);
        check_b "has_errors" true (Analysis.Lint.has_errors r);
        (* dropping the first barrier races too (tile loads vs consumers) *)
        let r0 = Apps.Workbench.lint_mutant wb (Kir.Mutate.drop_sync ~index:0) in
        check_b "first-barrier drop races" true
          (r0.Analysis.Lint.r_races.Analysis.Races.findings <> []));
    t "race findings carry array, element and interval provenance" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        let r = Apps.Workbench.lint_mutant wb (Kir.Mutate.drop_sync ~index:1) in
        match r.Analysis.Lint.r_races.Analysis.Races.findings with
        | [] -> Alcotest.fail "expected at least one race"
        | f :: _ ->
          check_b "array named" true
            (List.mem f.Analysis.Races.f_array [ "As"; "Bs" ]);
          check_b "distinct threads" true
            (f.Analysis.Races.f_tid1 <> f.Analysis.Races.f_tid2));
    t "drop_sync with an out-of-range index raises" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        check_b "raises" true
          (try
             ignore (Kir.Mutate.drop_sync ~index:99 wb.Apps.Workbench.wb_kernel);
             false
           with Kir.Mutate.Mutate_error _ -> true));
    t "transpose_store on an array with no stores raises" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        check_b "raises" true
          (try
             ignore (Kir.Mutate.transpose_store ~array:"nosuch" wb.Apps.Workbench.wb_kernel);
             false
           with Kir.Mutate.Mutate_error _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Divergent barriers                                                  *)
(* ------------------------------------------------------------------ *)

let divergence_tests =
  [
    t "a barrier under a tid-dependent branch is reported" (fun () ->
        let k =
          {
            kname = "div";
            scalar_params = [];
            array_params = [];
            shared_decls = [ ("s", 32) ];
            local_decls = [];
            body = [ If (tid_x <: i 4, [ Sync ], []) ];
          }
        in
        check_b "flagged" true (Analysis.Races.tid_dependent_barriers k <> []));
    t "a barrier under a uniform branch is not reported" (fun () ->
        let k =
          {
            kname = "uni";
            scalar_params = [ ("n", S32) ];
            array_params = [];
            shared_decls = [ ("s", 32) ];
            local_decls = [];
            body = [ If (bid_x <: Param "n", [ Sync ], []); Sync ];
          }
        in
        check_i "none" 0 (List.length (Analysis.Races.tid_dependent_barriers k)));
    t "shipped kernels have no divergent barriers" (fun () ->
        List.iter
          (fun wb ->
            let wb = wb_exn wb in
            check_i wb.Apps.Workbench.wb_app 0
              (List.length (Analysis.Races.tid_dependent_barriers wb.Apps.Workbench.wb_kernel)))
          [ Apps.Matmul.workbench Apps.Matmul.smoke; Apps.Sad.workbench Apps.Sad.smoke ]);
  ]

(* ------------------------------------------------------------------ *)
(* Simulator per-site counters: sum invariants                         *)
(* ------------------------------------------------------------------ *)

let counter_tests =
  [
    t "site counters sum to the aggregate simulator statistics" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        let ptx, _ = Kir.Lower.lower_with_sites wb.Apps.Workbench.wb_kernel in
        let stats =
          Gpu.Sim.run ~mode:Gpu.Sim.Functional
            (Gpu.Device.clone wb.Apps.Workbench.wb_dev)
            {
              Gpu.Sim.kernel = ptx;
              grid = wb.Apps.Workbench.wb_grid;
              block = wb.Apps.Workbench.wb_block;
              args = wb.Apps.Workbench.wb_args;
            }
        in
        let tx_sum =
          List.fold_left
            (fun acc (sc : Gpu.Sim.site_counter) -> acc + sc.Gpu.Sim.sc_tx)
            0 stats.Gpu.Sim.site_counters
        in
        check_i "Σ site tx = gmem transactions" stats.Gpu.Sim.gmem_transactions tx_sum;
        let shared_replays =
          List.fold_left
            (fun acc (sc : Gpu.Sim.site_counter) ->
              if sc.Gpu.Sim.sc_space = Ptx.Instr.Shared then acc + sc.Gpu.Sim.sc_replays else acc)
            0 stats.Gpu.Sim.site_counters
        in
        check_i "Σ shared replays · issue = conflict extra"
          stats.Gpu.Sim.bank_conflict_extra
          (shared_replays * Gpu.Arch.g80.Gpu.Arch.latencies.issue));
    t "bank-conflict mutant: replay counters light up in the simulator" (fun () ->
        let wb = wb_exn (Apps.Matmul.workbench Apps.Matmul.smoke) in
        let k = Kir.Mutate.transpose_store ~array:"As" wb.Apps.Workbench.wb_kernel in
        let ptx, _ = Kir.Lower.lower_with_sites k in
        let stats =
          Gpu.Sim.run ~mode:Gpu.Sim.Functional
            (Gpu.Device.clone wb.Apps.Workbench.wb_dev)
            {
              Gpu.Sim.kernel = ptx;
              grid = wb.Apps.Workbench.wb_grid;
              block = wb.Apps.Workbench.wb_block;
              args = wb.Apps.Workbench.wb_args;
            }
        in
        check_b "replays > 0" true
          (List.exists
             (fun (sc : Gpu.Sim.site_counter) -> sc.Gpu.Sim.sc_replays > 0)
             stats.Gpu.Sim.site_counters));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let pipeline_tests =
  [
    t "the analyze stage fills compiled.lint and reports via the hook" (fun () ->
        let p = Apps.Matmul.setup Apps.Matmul.smoke in
        let cfg = List.hd (Tuner.Space.configs Apps.Matmul.space) in
        let stages = ref [] in
        let c =
          Apps.Matmul.compile
            ~hook:(fun s -> stages := s.Tuner.Pipeline.stage :: !stages)
            ~analyze:(Apps.Matmul.analysis_input_of p cfg)
            Apps.Matmul.smoke cfg
        in
        check_b "lint present" true (c.Tuner.Pipeline.lint <> None);
        check_b "analyze stage traced" true (List.mem "analyze" !stages);
        match c.Tuner.Pipeline.lint with
        | None -> Alcotest.fail "no lint report"
        | Some r -> check_i "matmul sites" 7 (List.length r.Analysis.Lint.r_sites));
    t "without ?analyze the pipeline skips the stage" (fun () ->
        let cfg = List.hd (Tuner.Space.configs Apps.Matmul.space) in
        let stages = ref [] in
        let c =
          Apps.Matmul.compile
            ~hook:(fun s -> stages := s.Tuner.Pipeline.stage :: !stages)
            Apps.Matmul.smoke cfg
        in
        check_b "no lint" true (c.Tuner.Pipeline.lint = None);
        check_b "no analyze stage" false (List.mem "analyze" !stages));
    t "instruction class breakdown partitions the static program" (fun () ->
        let cfg = List.hd (Tuner.Space.configs Apps.Matmul.space) in
        let c = Apps.Matmul.compile Apps.Matmul.smoke cfg in
        let rows = Ptx.Count.class_breakdown c.Tuner.Pipeline.ptx in
        let static_sum =
          List.fold_left (fun acc (r : Ptx.Count.class_row) -> acc + r.static_count) 0 rows
        in
        (* bodies + one terminator per block = Prog.static_size *)
        check_i "classes partition static size" (Ptx.Prog.static_size c.Tuner.Pipeline.ptx)
          static_sum;
        let get n =
          (List.find (fun (r : Ptx.Count.class_row) -> r.class_name = n) rows).Ptx.Count
          .static_count
        in
        check_b "has global and shared mem instructions" true
          (get "mem.global" > 0 && get "mem.shared" > 0 && get "barrier" > 0));
  ]

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"affine index forms agree with the interpreter (qcheck)" ~count:500
         arbitrary_expr affine_vs_interp);
  ]

let suite =
  [
    ("analysis:affine", qcheck_tests);
    ("analysis:crossval", crossval_tests);
    ("analysis:crossval-pins", crossval_pins);
    ("analysis:mutants", mutant_tests);
    ("analysis:divergence", divergence_tests);
    ("analysis:counters", counter_tests);
    ("analysis:pipeline", pipeline_tests);
  ]
