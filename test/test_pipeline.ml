(* Tests for the unified compilation pipeline: PTX verification rejects
   corrupted kernels, per-stage verification catches broken passes, the
   typed spaces match the candidate enumerations, and the trace hook
   reports per-pass statistics. *)

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let r0 = Ptx.Reg.make F32 0
let r1 = Ptx.Reg.make F32 1
let s0 = Ptx.Reg.make S32 0
let p0 = Ptx.Reg.make Pred 0

let ret_kernel ~name blocks =
  Ptx.Prog.make ~name ~params:[] ~smem_words:0 ~lmem_words:0 blocks

let rejects what k =
  match Ptx.Verify.check k with
  | Ok () -> Alcotest.failf "verifier accepted a kernel with %s" what
  | Error vs -> check_b "violations reported" true (vs <> [])

(* ------------------------------------------------------------------ *)
(* Ptx.Verify on hand-corrupted kernels                                 *)
(* ------------------------------------------------------------------ *)

let verify_tests =
  [
    t "accepts a well-formed straight-line kernel" (fun () ->
        let k =
          ret_kernel ~name:"ok"
            [
              Ptx.Prog.block "entry"
                [
                  Ptx.Instr.Mov (r0, Ptx.Instr.Imm_f 1.0);
                  Ptx.Instr.F2 (Ptx.Instr.FAdd, r1, Ptx.Instr.Reg r0, Ptx.Instr.Imm_f 2.0);
                ]
                Ptx.Prog.Ret;
            ]
        in
        check_b "ok" true (Ptx.Verify.check k = Ok ()));
    t "rejects a use of an undefined register" (fun () ->
        let k =
          ret_kernel ~name:"undef"
            [
              Ptx.Prog.block "entry"
                [ Ptx.Instr.F2 (Ptx.Instr.FAdd, r1, Ptx.Instr.Reg r0, Ptx.Instr.Imm_f 2.0) ]
                Ptx.Prog.Ret;
            ]
        in
        rejects "an undefined register" k);
    t "rejects a register defined only on one branch arm" (fun () ->
        let k =
          ret_kernel ~name:"halfdef"
            [
              Ptx.Prog.block "entry"
                [
                  Ptx.Instr.Mov (s0, Ptx.Instr.Par "n");
                  Ptx.Instr.Setp (Ptx.Instr.CLt, Ptx.Reg.S32, p0, Ptx.Instr.Reg s0, Ptx.Instr.Imm_i 4);
                ]
                (Ptx.Prog.Br { pred = p0; negate = false; if_true = "then"; if_false = "join"; reconv = "join" });
              Ptx.Prog.block "then" [ Ptx.Instr.Mov (r0, Ptx.Instr.Imm_f 1.0) ] (Ptx.Prog.Jump "join");
              (* r0 is undefined when the branch is not taken *)
              Ptx.Prog.block "join"
                [ Ptx.Instr.F2 (Ptx.Instr.FAdd, r1, Ptx.Instr.Reg r0, Ptx.Instr.Imm_f 2.0) ]
                Ptx.Prog.Ret;
            ]
        in
        let k = { k with Ptx.Prog.params = [ { Ptx.Prog.pname = "n"; pty = Ptx.Prog.PS32 } ] } in
        rejects "a partially defined register" k);
    t "rejects a dangling jump target" (fun () ->
        let k =
          ret_kernel ~name:"dangling"
            [ Ptx.Prog.block "entry" [] (Ptx.Prog.Jump "nowhere") ]
        in
        rejects "a dangling label" k);
    t "rejects an undeclared parameter reference" (fun () ->
        let k =
          ret_kernel ~name:"ghostpar"
            [ Ptx.Prog.block "entry" [ Ptx.Instr.Mov (r0, Ptx.Instr.Par "ghost") ] Ptx.Prog.Ret ]
        in
        rejects "an undeclared parameter" k);
    t "rejects a barrier inside a tid-divergent region" (fun () ->
        let k =
          ret_kernel ~name:"divbar"
            [
              Ptx.Prog.block "entry"
                [
                  Ptx.Instr.Mov (s0, Ptx.Instr.Spec Ptx.Instr.Tid_x);
                  Ptx.Instr.Setp (Ptx.Instr.CLt, Ptx.Reg.S32, p0, Ptx.Instr.Reg s0, Ptx.Instr.Imm_i 4);
                ]
                (Ptx.Prog.Br { pred = p0; negate = false; if_true = "then"; if_false = "join"; reconv = "join" });
              Ptx.Prog.block "then" [ Ptx.Instr.Bar ] (Ptx.Prog.Jump "join");
              Ptx.Prog.block "join" [] Ptx.Prog.Ret;
            ]
        in
        rejects "a divergent barrier" k);
    t "accepts the same barrier under a uniform predicate" (fun () ->
        (* Identical shape, but the predicate derives from a kernel
           parameter (uniform across the block), so the barrier is
           legal: every thread or no thread reaches it. *)
        let k =
          ret_kernel ~name:"unibar"
            [
              Ptx.Prog.block "entry"
                [
                  Ptx.Instr.Mov (s0, Ptx.Instr.Par "n");
                  Ptx.Instr.Setp (Ptx.Instr.CLt, Ptx.Reg.S32, p0, Ptx.Instr.Reg s0, Ptx.Instr.Imm_i 4);
                ]
                (Ptx.Prog.Br { pred = p0; negate = false; if_true = "then"; if_false = "join"; reconv = "join" });
              Ptx.Prog.block "then" [ Ptx.Instr.Bar ] (Ptx.Prog.Jump "join");
              Ptx.Prog.block "join" [] Ptx.Prog.Ret;
            ]
        in
        let k = { k with Ptx.Prog.params = [ { Ptx.Prog.pname = "n"; pty = Ptx.Prog.PS32 } ] } in
        check_b "ok" true (Ptx.Verify.check k = Ok ()));
    t "check_exn raises Invalid with the stage name" (fun () ->
        let k =
          ret_kernel ~name:"undef"
            [
              Ptx.Prog.block "entry"
                [ Ptx.Instr.F2 (Ptx.Instr.FAdd, r1, Ptx.Instr.Reg r0, Ptx.Instr.Imm_f 2.0) ]
                Ptx.Prog.Ret;
            ]
        in
        match Ptx.Verify.check_exn ~stage:"unit-test" k with
        | () -> Alcotest.fail "expected Invalid"
        | exception Ptx.Verify.Invalid (stage, vs) ->
          check_b "stage" true (stage = "unit-test");
          check_b "violations" true (vs <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline verification catches broken passes                          *)
(* ------------------------------------------------------------------ *)

let mm_cfg = { Apps.Matmul.tile = 16; rect = 2; unroll = 2; prefetch = true; spill = false }

(* The configurations of one app's space whose smoke-shape lowering
   does not settle in exactly two [Ptx.Opt.fixpoint] rounds, with the
   rounds each took. *)
let unsettled ~schedule ~kernel ~describe space =
  List.filter_map
    (fun cfg ->
      let kir =
        List.fold_left
          (fun k (p : Tuner.Pipeline.kir_pass) -> p.kp_fn k)
          (kernel cfg) (schedule cfg)
      in
      let rounds = ref 0 in
      ignore
        (Ptx.Opt.fixpoint
           (fun ~round _ pass k ->
             rounds := max !rounds round;
             pass k)
           (Kir.Lower.lower kir)
          : Ptx.Prog.t);
      if !rounds = 2 then None else Some (Printf.sprintf "%s: %d rounds" (describe cfg) !rounds))
    (Tuner.Space.configs space)

let pipeline_tests =
  [
    t "a KIR pass that breaks typing is caught and named" (fun () ->
        let broken =
          Tuner.Pipeline.kir_pass "break-kir" (fun k ->
              { k with Kir.Ast.body = [ Kir.Ast.Assign ("ghost", Kir.Ast.v "ghost") ] })
        in
        match Tuner.Pipeline.compile [ broken ] (Apps.Matmul.kernel Apps.Matmul.smoke mm_cfg) with
        | _ -> Alcotest.fail "expected Pass_failed"
        | exception Tuner.Fault.Pass_failed { stage; _ } ->
          check_b "stage names the pass" true (stage = "break-kir"));
    t "a PTX pass that corrupts the kernel is caught and named" (fun () ->
        (* Empty the entry block's body: downstream blocks then use
           registers that are never defined. *)
        let break_entry (p : Ptx.Prog.t) =
          match p.blocks with
          | b :: rest -> { p with blocks = { b with body = [] } :: rest }
          | [] -> p
        in
        (match
           Tuner.Pipeline.compile
             ~extra_ptx:[ Tuner.Pipeline.ptx_pass "break-ptx" break_entry ]
             (Apps.Matmul.schedule mm_cfg)
             (Apps.Matmul.kernel Apps.Matmul.smoke mm_cfg)
         with
        | _ -> Alcotest.fail "expected Pass_failed"
        | exception Tuner.Fault.Pass_failed { stage; _ } ->
          check_b "stage names the pass" true (stage = "break-ptx"));
        (* The same corruption applied to a kernel that passed every
           check fails [Ptx.Verify.check] on its own: the checks, not
           luck, caught it. *)
        let verified = (Apps.Matmul.compile Apps.Matmul.smoke mm_cfg).ptx in
        check_b "the verified kernel passes" true (Result.is_ok (Ptx.Verify.check verified));
        check_b "the corrupted kernel fails" true
          (Result.is_error (Ptx.Verify.check (break_entry verified))));
    t "the trace hook reports every stage with sane statistics" (fun () ->
        let stats = ref [] in
        let c =
          Apps.Matmul.compile ~hook:(fun s -> stats := s :: !stats) Apps.Matmul.smoke mm_cfg
        in
        let stats = List.rev !stats in
        check_b "has KIR stages" true
          (List.exists (fun (s : Tuner.Pipeline.stat) -> s.layer = Tuner.Pipeline.Kir) stats);
        check_b "has the lower stage" true
          (List.exists (fun (s : Tuner.Pipeline.stat) -> s.stage = "lower") stats);
        (match List.rev stats with
        | last :: _ ->
          check_b "last stage is characterize" true (last.stage = "characterize");
          check_i "regs match the resource report" c.resource.regs_per_thread last.regs
        | [] -> Alcotest.fail "no stats emitted");
        List.iter
          (fun (s : Tuner.Pipeline.stat) ->
            check_b "sizes positive" true (s.size_before > 0 && s.size_after > 0);
            check_b "time non-negative" true (s.elapsed_s >= 0.0))
          stats);
    t "scheduled PTX passes reproduce Ptx.Opt.run exactly" (fun () ->
        let kir = Apps.Matmul.kernel Apps.Matmul.smoke mm_cfg in
        let kir =
          List.fold_left
            (fun k (p : Tuner.Pipeline.kir_pass) -> p.kp_fn k)
            kir (Apps.Matmul.schedule mm_cfg)
        in
        let direct = Ptx.Opt.run (Kir.Lower.lower kir) in
        let piped = (Tuner.Pipeline.lower_opt kir).ptx in
        check_b "byte-identical kernels" true (direct = piped));
    t "the optimization fixpoint converges on a NaN immediate (regression)" (fun () ->
        (* The convergence test compared kernels with structural [=],
           which is false on NaN: a kernel carrying a NaN immediate ran
           every one of the 8 rounds.  With any other constant the same
           kernel settles in 2 (one round rewrites, one confirms). *)
        let rounds c =
          let open Kir.Ast in
          let k =
            {
              kname = "fold";
              scalar_params = [];
              array_params = [ { aname = "O"; aspace = Global } ];
              shared_decls = [];
              local_decls = [];
              body = [ Let ("x", F32, f c); Store ("O", i 0, v "x" +: f 1.0) ];
            }
          in
          let n = ref 0 in
          let hook (s : Tuner.Pipeline.stat) =
            if String.length s.stage > 4 && String.sub s.stage 0 4 = "dce#" then incr n
          in
          ignore (Tuner.Pipeline.lower_opt ~hook k : Tuner.Pipeline.compiled);
          !n
        in
        check_i "rounds with 1.5" 2 (rounds 1.5);
        check_i "rounds with nan" 2 (rounds Float.nan));
    t "every quick-scale app lowering reaches its fixpoint in 2 rounds" (fun () ->
        let off =
          Apps.Matmul.(unsettled ~schedule ~kernel:(kernel smoke) ~describe space)
          @ Apps.Cp.(unsettled ~schedule ~kernel:(kernel smoke) ~describe space)
          @ Apps.Sad.(unsettled ~schedule ~kernel:(kernel smoke) ~describe space)
          @ Apps.Mri_fhd.(unsettled ~schedule ~kernel:(kernel smoke) ~describe space)
        in
        Alcotest.(check (list string)) "configurations off two rounds" [] off);
    t "unroll of a missing loop label raises No_such_loop" (fun () ->
        let k = Apps.Matmul.kernel Apps.Matmul.smoke mm_cfg in
        match Kir.Unroll.apply ~select:(Kir.Unroll.Named "nonexistent") ~factor:2 k with
        | _ -> Alcotest.fail "expected No_such_loop"
        | exception Kir.Unroll.No_such_loop name ->
          check_b "names the loop" true (name = "nonexistent"));
    t "Named and Pred selectors agree on the k loop" (fun () ->
        let k = Apps.Matmul.kernel Apps.Matmul.smoke mm_cfg in
        let a = Kir.Unroll.apply ~select:(Kir.Unroll.Named "k") ~factor:2 k in
        let b = Kir.Unroll.apply ~select:(Kir.Unroll.Pred (String.equal "k")) ~factor:2 k in
        check_b "identical" true (a = b));
  ]

(* ------------------------------------------------------------------ *)
(* The stage trace, pinned row by row                                   *)
(* ------------------------------------------------------------------ *)

(* One hook row without its time: stage, layer, size before and after,
   registers. *)
let trace_row (s : Tuner.Pipeline.stat) =
  Printf.sprintf "%s %s %d %d %d" s.stage (Tuner.Pipeline.layer_name s.layer) s.size_before
    s.size_after s.regs

let traced compile =
  let rows = ref [] in
  ignore (compile (fun s -> rows := trace_row s :: !rows) : Tuner.Pipeline.compiled);
  String.concat "\n" (List.rev !rows)

(* Paper-shape configurations whose schedules run KIR passes where the
   app has any. *)
let traced_configs =
  [
    ( "matmul",
      "16x16/1x2/u4/pf/sp",
      {|unroll(k,4) kir 19 28 0
prefetch kir 28 40 0
spill(sum0) kir 40 40 0
lower lower 40 139 13
value-number#1 ptx 139 139 18
dce#1 ptx 139 113 15
value-number#2 ptx 113 113 15
dce#2 ptx 113 113 15
characterize characterize 113 113 15|} );
    ( "cp",
      "b16x4/t2/co",
      {|lower lower 24 50 13
value-number#1 ptx 50 50 14
dce#1 ptx 50 41 13
value-number#2 ptx 41 41 13
dce#2 ptx 41 41 13
characterize characterize 41 41 13|} );
    ( "sad",
      "tpb128/t2/uv2/uy2/ux2",
      {|unroll(px,2) kir 29 32 0
unroll(py,2) kir 32 39 0
unroll(t,2) kir 39 61 0
lower lower 61 229 26
value-number#1 ptx 229 229 32
dce#1 ptx 229 199 27
value-number#2 ptx 199 199 27
dce#2 ptx 199 199 27
characterize characterize 199 199 27|} );
    ( "mri",
      "tpb128/u4/w2",
      {|unroll(k,4) kir 23 53 0
lower lower 53 158 17
value-number#1 ptx 158 158 18
dce#1 ptx 158 114 17
value-number#2 ptx 114 114 17
dce#2 ptx 114 114 17
characterize characterize 114 114 17|} );
  ]

let trace_tests =
  List.map
    (fun (app, desc, want) ->
      t (Printf.sprintf "the hook's rows for %s %s" app desc) (fun () ->
          let e = Option.get (Apps.Registry.find app) in
          let got =
            traced (fun hook ->
                match e.compile ~hook desc with Ok c -> c | Error m -> Alcotest.fail m)
          in
          Alcotest.(check string) "rows" want got))
    traced_configs
  @ [
      t "the hook's rows with the peephole pass appended" (fun () ->
          let rules = (Tuner.Superopt.discover ~max_len:1 ()).rules in
          let cfg =
            { Apps.Matmul.tile = 16; rect = 2; unroll = 4; prefetch = true; spill = false }
          in
          let got =
            traced (fun hook ->
                Tuner.Pipeline.compile ~hook
                  ~extra_ptx:[ Tuner.Pipeline.peephole rules ]
                  (Apps.Matmul.schedule cfg)
                  (Apps.Matmul.kernel Apps.Matmul.paper cfg))
          in
          Alcotest.(check string) "rows"
            {|unroll(k,4) kir 19 28 0
prefetch kir 28 40 0
lower lower 40 130 14
value-number#1 ptx 130 130 17
dce#1 ptx 130 104 14
value-number#2 ptx 104 104 14
dce#2 ptx 104 104 14
peephole ptx 104 104 14
characterize characterize 104 104 14|}
            got);
    ]

(* ------------------------------------------------------------------ *)
(* Spaces vs candidate enumerations                                     *)
(* ------------------------------------------------------------------ *)

let space_tests =
  [
    t "registry cardinalities are the paper's Table 4 sizes" (fun () ->
        let card name =
          (Option.get (Apps.Registry.find name)).Apps.Registry.cardinality
        in
        check_i "matmul" 96 (card "matmul");
        check_i "cp" 40 (card "cp");
        check_i "sad" 648 (card "sad");
        check_i "mri" 175 (card "mri"));
    t "sad's validity constraint is recorded and effective" (fun () ->
        let s = Apps.Sad.space in
        check_b "constraint named" true
          (List.mem "u_vec <= tiling" (Tuner.Space.constraints s));
        check_i "raw cross product" 972 (Tuner.Space.raw_cardinality s);
        check_i "constrained" 648 (Tuner.Space.cardinality s);
        check_b "predicate holds everywhere" true
          (List.for_all (fun (c : Apps.Sad.config) -> c.u_vec <= c.tiling)
             (Tuner.Space.configs s)));
    t "space params carry every axis in declaration order" (fun () ->
        List.iter
          (fun (_, params) ->
            check_b "axis names" true
              (List.map fst params = [ "tile"; "rect"; "unroll"; "prefetch"; "spill" ]))
          (Tuner.Space.elements Apps.Matmul.space));
    ts "every registry app enumerates exactly its space" (fun () ->
        List.iter
          (fun (e : Apps.Registry.entry) ->
            let cands = e.quick_candidates () in
            check_i (e.name ^ " count") e.cardinality (List.length cands);
            check_b (e.name ^ " order and descs") true
              (List.map (fun (c : Tuner.Candidate.t) -> c.desc) cands
              = Lazy.force e.configs))
          Apps.Registry.all);
  ]

let suite =
  [
    ("pipeline.verify", verify_tests);
    ("pipeline.compile", pipeline_tests);
    ("pipeline.trace", trace_tests);
    ("pipeline.spaces", space_tests);
  ]
