(* Superoptimizer battery: the equivalence funnel (including the two
   miscompilations PR 1 fixed, pinned here as counterexamples the
   funnel must reproduce), window canonicalization, rule-database
   determinism and soundness under fresh random vectors, peephole
   application with translation validation, the golden-digest guarantee
   that the verified pass is a no-op on already-optimized kernels, the
   store's blob records, and the dead-store lint. *)

module W = Ptx.Window
module E = Ptx.Equiv
module P = Ptx.Patterns
module Ph = Ptx.Peephole
module So = Tuner.Superopt
open Ptx.Instr

let t name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest
let f32 i = Ptx.Reg.make Ptx.Reg.F32 i
let s32 i = Ptx.Reg.make Ptx.Reg.S32 i
let pred i = Ptx.Reg.make Ptx.Reg.Pred i

let check_verdict name expected got =
  let show = function
    | E.Equivalent tier -> "equivalent/" ^ E.tier_name tier
    | E.Refuted (tier, cx) ->
      Printf.sprintf "refuted/%s (%s)" (E.tier_name tier) (E.counterexample_to_string cx)
    | E.Unsupported r -> "unsupported: " ^ r
  in
  let tag v = match v with
    | E.Equivalent _ -> "equivalent"
    | E.Refuted _ -> "refuted"
    | E.Unsupported _ -> "unsupported"
  in
  if tag got <> expected then
    Alcotest.failf "%s: expected %s, got %s" name expected (show got)

(* The shared full rule database (discovered once; ~2s). *)
let db = lazy (So.discover ~jobs:1 ())

(* ------------------------------------------------------------------ *)
(* PR 1's miscompilations as funnel counterexamples                    *)
(* ------------------------------------------------------------------ *)

let counterexample_tests =
  [
    t "signed-zero fold: x + 0.0 -> x is refuted (PR 1 bug #1)" (fun () ->
        (* The original simplify folded [x + (+0.0)] to [x]; at
           x = -0.0 the sum is +0.0, not -0.0.  The funnel must find
           this in its quick tier — -0.0 is a fixed vector. *)
        let lhs = [ F2 (FAdd, f32 1, Reg (f32 0), Imm_f 0.0) ] in
        let rhs = [ Mov (f32 1, Reg (f32 0)) ] in
        (match E.check lhs rhs with
        | E.Refuted (E.Quick, cx) ->
          (* The counterexample is the signed zero itself. *)
          Alcotest.(check bool) "refuting input is -0.0" true
            (List.exists
               (fun (_, v) ->
                 match v with
                 | E.VF x -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float (-0.0))
                 | _ -> false)
               cx.E.cx_assign)
        | v -> check_verdict "x + 0.0 -> x" "refuted" v);
        (* The guarded fold PR 1 replaced it with is verified. *)
        check_verdict "x + -0.0 -> x" "equivalent"
          (E.check [ F2 (FAdd, f32 1, Reg (f32 0), Imm_f (-0.0)) ] rhs);
        check_verdict "x - 0.0 -> x" "equivalent"
          (E.check [ F2 (FSub, f32 1, Reg (f32 0), Imm_f 0.0) ] rhs);
        check_verdict "x - -0.0 -> x" "refuted"
          (E.check [ F2 (FSub, f32 1, Reg (f32 0), Imm_f (-0.0)) ] rhs));
    t "CSE self-clobbered key: d = d+d; e = d+d => e = d is refuted (PR 1 bug #2)" (fun () ->
        (* The original CSE recorded [d+d -> d] even when the
           instruction redefined its own key's operand, then "reused"
           the stale value: with d0 the input, the second d+d is 4*d0,
           not the redefined d (2*d0). *)
        let lhs =
          [
            F2 (FAdd, f32 0, Reg (f32 0), Reg (f32 0));
            F2 (FAdd, f32 1, Reg (f32 0), Reg (f32 0));
          ]
        in
        let rhs =
          [ F2 (FAdd, f32 0, Reg (f32 0), Reg (f32 0)); Mov (f32 1, Reg (f32 0)) ]
        in
        check_verdict "self-clobbered CSE reuse" "refuted" (E.check lhs rhs);
        (* And no rule with this shape can be in the database. *)
        let bad_lhs_key = W.key (W.canonicalize lhs) in
        List.iter
          (fun (r : P.rule) ->
            if W.key r.P.lhs = bad_lhs_key then
              Alcotest.(check bool)
                "any rule on d=d+d; e=d+d must not reduce e to a copy of d" false
                (W.equal_seq r.P.rhs (W.canonicalize rhs)))
          (Lazy.force db).So.rules);
    t "CSE keeps x * 0.0 and x * -0.0 apart (signed-zero key regression)" (fun () ->
        (* CSE once keyed its table by structural equality, under which
           0.0 and -0.0 are one immediate: the second multiply became a
           copy of the first, and for positive x the second store wrote
           +0.0 instead of -0.0. *)
        let src =
          ".kernel t (.param .gbuf Out)\n.smem 0 .lmem 0\n{\nB0: .weight 1\n\
           ld.global.f32 %f0, [$Out];\nmul.f32 %f1, %f0, 0.0;\nmul.f32 %f2, %f0, -0.0;\n\
           st.global.f32 [$Out], %f1;\nst.global.f32 [$Out+4], %f2;\nret;\n}\n"
        in
        let k = Ptx.Parser.kernel_of_string src in
        let o = Ptx.Opt.run k in
        Alcotest.(check string) "both multiplies survive" (Ptx.Pp.kernel k) (Ptx.Pp.kernel o);
        match E.validate k o with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "translation validation: %s" (E.mismatch_to_string m));
  ]

(* ------------------------------------------------------------------ *)
(* The funnel's tiers                                                  *)
(* ------------------------------------------------------------------ *)

let funnel_tests =
  [
    t "predicate windows are decided exhaustively" (fun () ->
        match E.check [ P2 (PAnd, pred 1, Reg (pred 0), Reg (pred 0)) ]
                [ Mov (pred 1, Reg (pred 0)) ]
        with
        | E.Equivalent E.Exhaustive -> ()
        | v -> check_verdict "p && p -> p" "equivalent-exhaustive" v);
    t "closed windows are decided exhaustively" (fun () ->
        match E.check [ F2 (FAdd, f32 0, Imm_f 1.0, Imm_f 1.0) ] [ Mov (f32 0, Imm_f 2.0) ] with
        | E.Equivalent E.Exhaustive -> ()
        | v -> check_verdict "1+1 -> 2" "equivalent-exhaustive" v);
    t "float identities survive only as bounded claims" (fun () ->
        match E.check [ F2 (FMul, f32 1, Reg (f32 0), Imm_f 1.0) ] [ Mov (f32 1, Reg (f32 0)) ] with
        | E.Equivalent E.Bounded -> ()
        | v -> check_verdict "x*1 -> x" "equivalent-bounded" v);
    t "division by zero follows the simulator (0)" (fun () ->
        check_verdict "x/0 -> 0" "equivalent"
          (E.check [ I2 (IDiv, s32 1, Reg (s32 0), Imm_i 0) ] [ Mov (s32 1, Imm_i 0) ]));
    t "x*2 = x+x for f32 (bounded), but x*x != x+x" (fun () ->
        check_verdict "x*2 -> x+x" "equivalent"
          (E.check
             [ F2 (FMul, f32 1, Reg (f32 0), Imm_f 2.0) ]
             [ F2 (FAdd, f32 1, Reg (f32 0), Reg (f32 0)) ]);
        check_verdict "x*x -> x+x" "refuted"
          (E.check
             [ F2 (FMul, f32 1, Reg (f32 0), Reg (f32 0)) ]
             [ F2 (FAdd, f32 1, Reg (f32 0), Reg (f32 0)) ]));
    t "NaN payloads separate mad from mul+add only via rounding" (fun () ->
        (* fmad is unfused in the sim (round after the product), so
           mul-then-add IS mad; check the funnel agrees both ways. *)
        check_verdict "mad a,b,c ~ mul;add" "equivalent"
          (E.check
             [ Fmad (f32 3, Reg (f32 0), Reg (f32 1), Reg (f32 2)) ]
             [ F2 (FMul, f32 9, Reg (f32 0), Reg (f32 1));
               F2 (FAdd, f32 3, Reg (f32 9), Reg (f32 2)) ]
           |> function
           | E.Unsupported _ ->
             (* rhs defines f9 outside the lhs window: correctly
                unsupported as a *rule*; check the reverse direction. *)
             E.check
               [ F2 (FMul, f32 9, Reg (f32 0), Reg (f32 1));
                 F2 (FAdd, f32 3, Reg (f32 9), Reg (f32 2)) ]
               [ Fmad (f32 3, Reg (f32 0), Reg (f32 1), Reg (f32 2)) ]
           | v -> v));
    t "replacements reading new registers are unsupported" (fun () ->
        check_verdict "rhs reads outside window" "unsupported"
          (E.check [ Mov (f32 1, Imm_f 0.0) ] [ Mov (f32 1, Reg (f32 5)) ]));
    t "impure windows are unsupported" (fun () ->
        check_verdict "loads are not windows" "unsupported"
          (E.check
             [ Ld (Global, f32 0, { base = Reg (s32 0); offset = 0 }) ]
             [ Mov (f32 0, Imm_f 0.0) ]));
  ]

(* ------------------------------------------------------------------ *)
(* Window canonicalization                                             *)
(* ------------------------------------------------------------------ *)

let window_tests =
  [
    t "enumerated windows are canonical and unique" (fun () ->
        let ws = W.enumerate ~len:1 () @ W.enumerate ~vocab:W.pair_vocab ~len:2 () in
        Alcotest.(check bool) "nonempty" true (List.length ws > 500);
        List.iter
          (fun w -> Alcotest.(check bool) (W.key w ^ " canonical") true (W.is_canonical w))
          ws;
        let keys = List.map W.key ws in
        Alcotest.(check int) "no duplicates" (List.length keys)
          (List.length (List.sort_uniq compare keys)));
    qt
      (QCheck.Test.make ~name:"canonicalize is invariant under renaming (qcheck)" ~count:200
         QCheck.(int_range 0 1_000_000)
         (fun seed ->
           let ws = W.enumerate ~vocab:W.pair_vocab ~len:2 () in
           let w = List.nth ws (seed mod List.length ws) in
           (* Rename registers through an injective map and re-canonicalize. *)
           let shift = 1 + (seed mod 40) in
           let renamed =
             List.map
               (map_regs (fun r -> Ptx.Reg.make (Ptx.Reg.ty r) (Ptx.Reg.idx r + shift)))
               w
           in
           W.equal_seq (W.canonicalize renamed) w));
    t "renaming maps canonical windows back to concrete registers" (fun () ->
        let concrete =
          [ F2 (FAdd, f32 7, Reg (f32 3), Reg (f32 4)); F2 (FMul, f32 8, Reg (f32 7), Reg (f32 3)) ]
        in
        let canon = W.canonicalize concrete in
        let back =
          List.map
            (map_regs (fun r ->
                 match Ptx.Reg.Map.find_opt r (W.renaming concrete) with
                 | Some c -> c
                 | None -> r))
            canon
        in
        Alcotest.(check bool) "round trip" true (W.equal_seq back concrete));
  ]

(* ------------------------------------------------------------------ *)
(* The rule database                                                   *)
(* ------------------------------------------------------------------ *)

let eval_outputs (assign : (Ptx.Reg.t * E.value) list) (seq : t list) (outs : Ptx.Reg.t list) :
    E.value list =
  let c = E.make_ctx assign in
  E.run_seq c seq;
  List.map (E.reg_value c) outs

let db_tests =
  [
    t "bounded discovery harvests a usable database" (fun () ->
        let r = Lazy.force db in
        Alcotest.(check bool)
          (Printf.sprintf "%d rules >= 10" (List.length r.So.rules))
          true
          (List.length r.So.rules >= 10);
        (* Machine-checked equivalents of the hand-written Ptx.Opt
           folds are present... *)
        let has lhs rhs =
          List.exists
            (fun (ru : P.rule) -> W.key ru.P.lhs = lhs && W.key ru.P.rhs = rhs)
            r.So.rules
        in
        Alcotest.(check bool) "iadd identity" true
          (has "add.s32 %r1, %r0, 0;" "mov.s32 %r1, %r0;");
        Alcotest.(check bool) "fmul identity" true
          (has "mul.f32 %f1, %f0, 1.0;" "mov.f32 %f1, %f0;");
        Alcotest.(check bool) "guarded signed-zero identity" true
          (has "add.f32 %f1, %f0, -0.0;" "mov.f32 %f1, %f0;");
        Alcotest.(check bool) "imad a,1,0 identity" true
          (has "mad.s32 %r1, %r0, 1, 0;" "mov.s32 %r1, %r0;");
        (* ...and the unsound +0.0 fold is not. *)
        Alcotest.(check bool) "no unsound +0.0 fold" false
          (List.exists
             (fun (ru : P.rule) -> W.key ru.P.lhs = "add.f32 %f1, %f0, 0.0;")
             r.So.rules);
        (* Every rule is wellformed and carries a nonnegative win. *)
        List.iter
          (fun (ru : P.rule) ->
            Alcotest.(check bool) (P.to_line ru ^ " wellformed") true (P.wellformed ru))
          r.So.rules);
    t "database is bit-identical for jobs 1 vs jobs 4" (fun () ->
        (* Single-instruction windows keep this subsecond; the pool
           split is the same code path the full run uses. *)
        let a = So.discover ~jobs:1 ~max_len:1 () in
        let b = So.discover ~jobs:4 ~max_len:1 () in
        Alcotest.(check string) "serialized DBs equal" (P.to_string a.So.rules)
          (P.to_string b.So.rules);
        Alcotest.(check string) "digests equal" (P.digest a.So.rules) (P.digest b.So.rules));
    t "database round-trips through its text form" (fun () ->
        let rules = (Lazy.force db).So.rules in
        let reloaded = P.of_string (P.to_string rules) in
        Alcotest.(check int) "same cardinality" (List.length rules) (List.length reloaded);
        List.iter2
          (fun a b -> Alcotest.(check bool) (P.to_line a ^ " round-trips") true (P.equal_rule a b))
          rules reloaded;
        (* Corrupt lines are dropped, not misread. *)
        Alcotest.(check int) "garbage rejected" 0
          (List.length (P.of_string "p quick 4 garbage => more garbage\nnot a rule\n")));
    qt
      (QCheck.Test.make
         ~name:"soundness: no database rule is refutable by fresh random vectors (qcheck)"
         ~count:500
         QCheck.(int_range 0 1_000_000_000)
         (fun seed ->
           (* Fresh vectors, independent of the funnel's seeds: pick a
              rule and an input assignment from the QCheck seed and
              demand bitwise agreement on the rule's outputs. *)
           let rules = (Lazy.force db).So.rules in
           let r = List.nth rules (seed mod List.length rules) in
           let rng = Util.Rng.create seed in
           let assign =
             List.map (fun reg -> (reg, E.random_value rng (Ptx.Reg.ty reg))) (W.inputs r.P.lhs)
           in
           let outs = P.outputs r in
           List.for_all2 E.equal_value
             (eval_outputs assign r.P.lhs outs)
             (eval_outputs assign r.P.rhs outs)));
  ]

(* ------------------------------------------------------------------ *)
(* Peephole application and translation validation                     *)
(* ------------------------------------------------------------------ *)

let lowered_of (app : string) : Ptx.Prog.t * Tuner.Pipeline.compiled =
  let e = Option.get (Apps.Registry.find app) in
  match e.workbench () with
  | Error m -> Alcotest.fail m
  | Ok wb -> (Kir.Lower.lower wb.Apps.Workbench.wb_kernel, wb.Apps.Workbench.wb_compiled)

let apply_tests =
  [
    t "peephole rewrites matmul's raw lowering and validates" (fun () ->
        let rules = (Lazy.force db).So.rules in
        let before, _ = lowered_of "matmul" in
        let after, st = Ph.run_stats rules before in
        Alcotest.(check bool) "at least one window rewritten" true (st.Ph.matched >= 1);
        (match Ptx.Verify.check after with
        | Ok () -> ()
        | Error vs -> Alcotest.fail (Ptx.Verify.report vs));
        match E.validate before after with
        | Ok _ -> ()
        | Error m -> Alcotest.fail (E.mismatch_to_string m));
    t "peephole blocks rewrites whose clobbered register is live" (fun () ->
        (* d = a+a; e = d*d reduces the pair only if d is dead after;
           here d is stored afterwards, so the site must be skipped. *)
        let rule =
          {
            P.lhs =
              W.canonicalize
                [ F2 (FAdd, f32 1, Reg (f32 0), Reg (f32 0));
                  F2 (FMul, f32 2, Reg (f32 1), Reg (f32 1)) ];
            rhs = [];
            tier = E.Bounded;
            saved = 4;
          }
        in
        (* Build the rhs in the rule's canonical register names: the
           canonical lhs is add f1,f0,f0; mul f2,f1,f1 — replace with
           mul f9... keep it simple: rhs = the canonical mul of a
           doubled input computed with one mad. *)
        let canon = rule.P.lhs in
        let d_final = List.nth (W.defs canon) 1 in
        let input = List.hd (W.inputs canon) in
        let rule =
          { rule with P.rhs = [ Fmad (d_final, Reg input, Reg input, Reg input) ] }
        in
        (* (2a)*(2a) = 4a^2 vs mad a,a,a = a^2+a: NOT equivalent — this
           synthetic rule is deliberately wrong algebra, but the point
           here is liveness blocking, so bypass the funnel and check
           the application layer refuses when the clobber is live. *)
        let k =
          Ptx.Parser.kernel_of_string
            ".kernel t (.param .gbuf Out)\n.smem 0 .lmem 0\n{\nB0: .weight 1\n\
             add.f32 %f1, %f0, %f0;\nmul.f32 %f2, %f1, %f1;\n\
             st.global.f32 [$Out], %f1;\nst.global.f32 [$Out+4], %f2;\nret;\n}\n"
        in
        let k', st = Ph.run_stats [ rule ] k in
        Alcotest.(check int) "no rewrite fired" 0 st.Ph.matched;
        Alcotest.(check int) "the site was blocked by liveness" 1 st.Ph.blocked;
        Alcotest.(check string) "kernel unchanged" (Ptx.Pp.kernel k) (Ptx.Pp.kernel k'));
    t "Equiv.validate passes the existing Ptx.Opt pipeline on every app" (fun () ->
        List.iter
          (fun (e : Apps.Registry.entry) ->
            let lowered, _ = lowered_of e.name in
            let optimized = Ptx.Opt.run lowered in
            match E.validate lowered optimized with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "%s: %s" e.name (E.mismatch_to_string m))
          Apps.Registry.all);
    t "Equiv.validate catches a dropped store and a wrong constant" (fun () ->
        let k s =
          Ptx.Parser.kernel_of_string
            (Printf.sprintf ".kernel t (.param .gbuf Out)\n.smem 0 .lmem 0\n{\nB0: .weight 1\n%sret;\n}\n" s)
        in
        let orig = k "mov.f32 %f0, 1.0;\nst.global.f32 [$Out], %f0;\n" in
        let wrong = k "mov.f32 %f0, 2.0;\nst.global.f32 [$Out], %f0;\n" in
        let dropped = k "mov.f32 %f0, 1.0;\n" in
        (match E.validate orig wrong with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "wrong constant not caught");
        match E.validate orig dropped with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "dropped store not caught");
    t "golden digests: appending the peephole pass changes no app candidate" (fun () ->
        (* The satellite guarantee: on already-optimized kernels the
           verified pass is an identity, so every golden digest (stores,
           sim goldens) is untouched by --rules. *)
        let rules = (Lazy.force db).So.rules in
        let extra = [ Tuner.Pipeline.peephole rules ] in
        List.iter
          (fun (e : Apps.Registry.entry) ->
            let plain = e.quick_candidates () in
            let with_rules = e.quick_candidates ~extra_ptx:extra () in
            List.iter2
              (fun (a : Tuner.Candidate.t) (b : Tuner.Candidate.t) ->
                Alcotest.(check string)
                  (Printf.sprintf "%s %s unchanged" e.name a.desc)
                  (Ptx.Pp.kernel a.kernel) (Ptx.Pp.kernel b.kernel))
              plain with_rules)
          Apps.Registry.all);
  ]

(* ------------------------------------------------------------------ *)
(* Store blobs and the cached database                                 *)
(* ------------------------------------------------------------------ *)

let with_tmp (f : string -> 'a) : 'a =
  let file = Filename.temp_file "gpuopt-superopt-test-" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let store_tests =
  [
    t "blobs round-trip through the store file (newlines included)" (fun () ->
        with_tmp (fun file ->
            let key = Digest.to_hex (Digest.string "blob-test") in
            let content = "line one\nline two \"quoted\"\n\tlast" in
            let s = Tuner.Store.open_ ~file () in
            Tuner.Store.put_blob s ~key ~name:"test-blob" content;
            Alcotest.(check (option string)) "readback" (Some content)
              (Tuner.Store.get_blob s key);
            Alcotest.(check (option string)) "measurement view of a blob key" None
              (Option.map (fun _ -> "meas") (Tuner.Store.get s key));
            Tuner.Store.close s;
            let s2 = Tuner.Store.open_ ~file () in
            Alcotest.(check int) "no corrupt lines" 0
              (List.length (Tuner.Store.corrupt_entries s2));
            Alcotest.(check (option string)) "readback after reopen" (Some content)
              (Tuner.Store.get_blob s2 key);
            Tuner.Store.close s2));
    t "discover_cached reuses the stored database bit-for-bit" (fun () ->
        with_tmp (fun file ->
            let s = Tuner.Store.open_ ~file () in
            let cold = So.discover_cached ~store:s ~jobs:1 ~max_len:1 () in
            Alcotest.(check bool) "cold run not cached" false cold.So.cached;
            let warm = So.discover_cached ~store:s ~jobs:1 ~max_len:1 () in
            Alcotest.(check bool) "warm run cached" true warm.So.cached;
            Alcotest.(check string) "identical database" (P.to_string cold.So.rules)
              (P.to_string warm.So.rules);
            Tuner.Store.close s));
    t "database keys separate arch, semantics and bounds" (fun () ->
        let base = So.db_key () in
        Alcotest.(check bool) "arch changes the key" true
          (base <> So.db_key ~arch:(List.nth Gpu.Arch.archs 1) ());
        Alcotest.(check bool) "bounds change the key" true (base <> So.db_key ~max_len:1 ());
        Alcotest.(check bool) "sweep changes the key" true (base <> So.db_key ~sweep:64 ()));
  ]

(* ------------------------------------------------------------------ *)
(* Dead-store lint                                                     *)
(* ------------------------------------------------------------------ *)

let lint_tests =
  [
    t "dead_defs flags dead results and dead loads, spares live code" (fun () ->
        let k =
          Ptx.Parser.kernel_of_string
            ".kernel t (.param .gbuf Out)\n.smem 0 .lmem 0\n{\nB0: .weight 1\n\
             mov.f32 %f0, 1.0;\nadd.f32 %f1, %f0, %f0;\n\
             mul.f32 %f2, %f0, %f0;\nld.global.f32 %f3, [$Out];\n\
             st.global.f32 [$Out], %f1;\nret;\n}\n"
        in
        let dead = Ptx.Liveness.dead_defs k in
        let dead_regs =
          List.filter_map (fun (_, _, i) -> Option.map Ptx.Reg.to_string (def i)) dead
        in
        Alcotest.(check (list string)) "f2 (unused mul) and f3 (unused load)"
          [ "%f2"; "%f3" ] dead_regs);
    t "optimized app kernels have no dead stores" (fun () ->
        List.iter
          (fun (e : Apps.Registry.entry) ->
            let _, compiled = lowered_of e.name in
            Alcotest.(check int)
              (e.name ^ " optimized kernel clean")
              0
              (List.length (Ptx.Liveness.dead_defs compiled.Tuner.Pipeline.ptx)))
          Apps.Registry.all);
  ]

let suite =
  [
    ("superopt counterexamples", counterexample_tests);
    ("superopt funnel", funnel_tests);
    ("superopt windows", window_tests);
    ("superopt db", db_tests);
    ("superopt apply", apply_tests);
    ("superopt store", store_tests);
    ("superopt lint", lint_tests);
  ]
