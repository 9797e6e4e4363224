(* Tests for the PTX-like ISA: structure, printing/parsing, CFG,
   liveness, register allocation, scalar optimizations, and the static
   execution-profile estimation that feeds the paper's metrics. *)

open Ptx
module I = Instr

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let rf i = Reg.make Reg.F32 i
let rr i = Reg.make Reg.S32 i
let rp i = Reg.make Reg.Pred i

(* ------------------------------------------------------------------ *)
(* Registers                                                           *)
(* ------------------------------------------------------------------ *)

let reg_tests =
  [
    t "to_string uses PTX class prefixes" (fun () ->
        check_s "f" "%f3" (Reg.to_string (rf 3));
        check_s "r" "%r0" (Reg.to_string (rr 0));
        check_s "p" "%p7" (Reg.to_string (rp 7)));
    t "compare orders by class then index" (fun () ->
        check_b "f<r" true (Reg.compare (rf 9) (rr 0) < 0);
        check_b "r<p" true (Reg.compare (rr 9) (rp 0) < 0);
        check_b "idx" true (Reg.compare (rf 1) (rf 2) < 0);
        check_i "eq" 0 (Reg.compare (rp 4) (rp 4)));
    t "gen hands out distinct fresh registers per class" (fun () ->
        let g = Reg.Gen.create () in
        let a = Reg.Gen.fresh g Reg.F32 in
        let b = Reg.Gen.fresh g Reg.F32 in
        let c = Reg.Gen.fresh g Reg.S32 in
        check_b "distinct" true (not (Reg.equal a b));
        check_i "f idx" 0 (Reg.idx a);
        check_i "r idx starts fresh" 0 (Reg.idx c));
    t "create_above avoids existing registers" (fun () ->
        let g = Reg.Gen.create_above [ rf 5; rr 2 ] in
        check_i "f" 6 (Reg.idx (Reg.Gen.fresh g Reg.F32));
        check_i "r" 3 (Reg.idx (Reg.Gen.fresh g Reg.S32));
        check_i "p" 0 (Reg.idx (Reg.Gen.fresh g Reg.Pred)));
    t "make rejects negative indices" (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Reg.make: negative index") (fun () ->
            ignore (Reg.make Reg.F32 (-1))));
  ]

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let instr_tests =
  [
    t "def/uses of an fmad" (fun () ->
        let i = I.Fmad (rf 0, I.Reg (rf 1), I.Reg (rf 2), I.Reg (rf 0)) in
        check_b "def" true (I.def i = Some (rf 0));
        check_i "uses" 3 (List.length (I.uses i)));
    t "stores define nothing" (fun () ->
        let i = I.St (I.Global, { base = I.Reg (rr 1); offset = 4 }, I.Reg (rf 0)) in
        check_b "def" true (I.def i = None);
        check_i "uses" 2 (List.length (I.uses i)));
    t "immediates and params are not register uses" (fun () ->
        let i = I.F2 (I.FAdd, rf 0, I.Imm_f 1.0, I.Par "x") in
        check_i "uses" 0 (List.length (I.uses i)));
    t "map_regs renames defs and uses" (fun () ->
        let i = I.F2 (I.FAdd, rf 0, I.Reg (rf 1), I.Reg (rf 2)) in
        let j = I.map_regs (fun r -> Reg.make (Reg.ty r) (Reg.idx r + 10)) i in
        check_b "renamed" true (j = I.F2 (I.FAdd, rf 10, I.Reg (rf 11), I.Reg (rf 12))));
    t "map_uses leaves the destination alone" (fun () ->
        let i = I.Mov (rf 0, I.Reg (rf 1)) in
        let j = I.map_uses (fun _ -> I.Imm_f 2.0) i in
        check_b "dest kept" true (j = I.Mov (rf 0, I.Imm_f 2.0)));
    t "SFU classification" (fun () ->
        check_b "rsqrt" true (I.is_sfu (I.F1 (I.FRsqrt, rf 0, I.Reg (rf 1))));
        check_b "sin" true (I.is_sfu (I.F1 (I.FSin, rf 0, I.Reg (rf 1))));
        check_b "neg is not SFU" false (I.is_sfu (I.F1 (I.FNeg, rf 0, I.Reg (rf 1))));
        check_b "add is not SFU" false (I.is_sfu (I.F2 (I.FAdd, rf 0, I.Imm_f 1.0, I.Imm_f 2.0))));
    t "blocking classification (paper sec 4)" (fun () ->
        let gl = I.Ld (I.Global, rf 0, { base = I.Reg (rr 0); offset = 0 }) in
        let sh = I.Ld (I.Shared, rf 0, { base = I.Reg (rr 0); offset = 0 }) in
        let lo = I.Ld (I.Local, rf 0, { base = I.Imm_i 0; offset = 0 }) in
        check_b "global load blocks" true (I.is_blocking gl);
        check_b "local load blocks (off-chip)" true (I.is_blocking lo);
        check_b "shared load does not" false (I.is_blocking sh);
        check_b "barrier blocks" true (I.is_blocking I.Bar);
        check_b "stores do not block the warp" false
          (I.is_blocking (I.St (I.Global, { base = I.Reg (rr 0); offset = 0 }, I.Imm_f 0.0))));
    t "off-chip byte accounting" (fun () ->
        check_i "global ld" 4 (I.global_bytes (I.Ld (I.Global, rf 0, { base = I.Imm_i 0; offset = 0 })));
        check_i "shared ld" 0 (I.global_bytes (I.Ld (I.Shared, rf 0, { base = I.Imm_i 0; offset = 0 })));
        check_i "global st" 4
          (I.global_bytes (I.St (I.Global, { base = I.Imm_i 0; offset = 0 }, I.Imm_f 1.0))));
  ]

(* ------------------------------------------------------------------ *)
(* Programs and validation                                             *)
(* ------------------------------------------------------------------ *)

let block = Prog.block

let simple_kernel ?(smem = 0) blocks =
  Prog.make ~name:"k" ~params:[ { Prog.pname = "A"; pty = Prog.PBuf I.Global } ] ~smem_words:smem
    ~lmem_words:0 blocks

let prog_tests =
  [
    t "validate accepts a well-formed kernel" (fun () ->
        ignore
          (Prog.validate
             (simple_kernel
                [
                  block "entry" [ I.Mov (rr 0, I.Spec I.Tid_x) ] (Prog.Jump "exit");
                  block "exit" [] Prog.Ret;
                ])));
    t "validate rejects duplicate labels" (fun () ->
        check_b "raises" true
          (try
             ignore (Prog.validate (simple_kernel [ block "a" [] Prog.Ret; block "a" [] Prog.Ret ]));
             false
           with Invalid_argument _ -> true));
    t "validate rejects unknown jump targets" (fun () ->
        check_b "raises" true
          (try
             ignore (Prog.validate (simple_kernel [ block "a" [] (Prog.Jump "nowhere") ]));
             false
           with Invalid_argument _ -> true));
    t "validate rejects unknown reconvergence labels" (fun () ->
        check_b "raises" true
          (try
             ignore
               (Prog.validate
                  (simple_kernel
                     [
                       block "a" []
                         (Prog.Br
                            { pred = rp 0; negate = false; if_true = "b"; if_false = "b"; reconv = "zz" });
                       block "b" [] Prog.Ret;
                     ]));
             false
           with Invalid_argument _ -> true));
    t "validate rejects undeclared parameter uses" (fun () ->
        check_b "raises" true
          (try
             ignore
               (Prog.validate
                  (simple_kernel [ block "a" [ I.Mov (rr 0, I.Par "nope") ] Prog.Ret ]));
             false
           with Invalid_argument _ -> true));
    t "validate rejects empty kernels" (fun () ->
        check_b "raises" true
          (try
             ignore (Prog.validate (simple_kernel []));
             false
           with Invalid_argument _ -> true));
    t "static_size counts bodies plus terminators" (fun () ->
        let k =
          simple_kernel
            [
              block "a" [ I.Mov (rr 0, I.Imm_i 1); I.Mov (rr 1, I.Imm_i 2) ] (Prog.Jump "b");
              block "b" [] Prog.Ret;
            ]
        in
        check_i "size" 4 (Prog.static_size k));
    t "all_regs collects every register once" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [ I.F2 (I.FAdd, rf 0, I.Reg (rf 1), I.Reg (rf 1)); I.Mov (rr 0, I.Spec I.Tid_x) ]
                Prog.Ret;
            ]
        in
        check_i "count" 3 (Reg.Set.cardinal (Prog.all_regs k)));
  ]

(* ------------------------------------------------------------------ *)
(* Printer / parser roundtrip                                          *)
(* ------------------------------------------------------------------ *)

(* A random well-formed kernel generator for round-trip testing. *)
let random_kernel seed : Prog.t =
  let rng = Util.Rng.create seed in
  let n_blocks = 1 + Util.Rng.int rng 4 in
  let labels = List.init n_blocks (Printf.sprintf "B%d") in
  let label i = List.nth labels (i mod n_blocks) in
  let operand () =
    match Util.Rng.int rng 6 with
    | 0 -> I.Reg (rf (Util.Rng.int rng 8))
    | 1 -> I.Reg (rr (Util.Rng.int rng 8))
    | 2 -> I.Imm_f (Util.Float32.round (Util.Rng.float_range rng (-100.0) 100.0))
    | 3 -> I.Imm_i (Util.Rng.int rng 1000 - 500)
    | 4 -> I.Spec I.Tid_x
    | _ -> I.Par "A"
  in
  let int_operand () =
    match Util.Rng.int rng 3 with
    | 0 -> I.Reg (rr (Util.Rng.int rng 8))
    | 1 -> I.Imm_i (Util.Rng.int rng 4096)
    | _ -> I.Par "A"
  in
  let instr () =
    match Util.Rng.int rng 10 with
    | 0 -> I.Mov (rf (Util.Rng.int rng 8), operand ())
    | 1 -> I.F2 (I.FMul, rf 0, operand (), operand ())
    | 2 -> I.Fmad (rf 1, operand (), operand (), operand ())
    | 3 -> I.I2 (I.IShl, rr 2, int_operand (), I.Imm_i (Util.Rng.int rng 8))
    | 4 -> I.Imad (rr 3, int_operand (), I.Imm_i 4, int_operand ())
    | 5 -> I.Setp (I.CLe, Reg.S32, rp 0, int_operand (), int_operand ())
    | 6 -> I.Ld (I.Global, rf 4, { base = int_operand (); offset = 4 * Util.Rng.int rng 16 })
    | 7 -> I.St (I.Shared, { base = int_operand (); offset = 0 }, operand ())
    | 8 -> I.Bar
    | _ -> I.Selp (rf 5, operand (), operand (), I.Reg (rp 0))
  in
  let mk_block i name =
    let body = List.init (Util.Rng.int rng 6) (fun _ -> instr ()) in
    let term =
      match Util.Rng.int rng 3 with
      | 0 when i < n_blocks - 1 -> Prog.Jump (label (i + 1))
      | 1 when i < n_blocks - 1 ->
        Prog.Br
          {
            pred = rp 0;
            negate = Util.Rng.int rng 2 = 0;
            if_true = label (i + 1);
            if_false = label (Util.Rng.int rng n_blocks);
            reconv = label (Util.Rng.int rng n_blocks);
          }
      | _ -> Prog.Ret
    in
    { Prog.label = name; weight = float_of_int (1 + Util.Rng.int rng 100); body; term }
  in
  Prog.validate (simple_kernel (List.mapi mk_block labels))

let roundtrip_tests =
  [
    t "roundtrip: hand-written kernel" (fun () ->
        let k =
          simple_kernel ~smem:128
            [
              block ~weight:17.0 "entry"
                [
                  I.Mov (rr 0, I.Spec I.Tid_x);
                  I.Imad (rr 1, I.Reg (rr 0), I.Imm_i 4, I.Par "A");
                  I.Ld (I.Global, rf 0, { base = I.Reg (rr 1); offset = 16 });
                  I.F1 (I.FRsqrt, rf 1, I.Reg (rf 0));
                  I.Setp (I.CLt, Reg.F32, rp 0, I.Reg (rf 1), I.Imm_f 0.5);
                ]
                (Prog.Br
                   { pred = rp 0; negate = true; if_true = "then"; if_false = "exit"; reconv = "exit" });
              block "then"
                [ I.St (I.Global, { base = I.Reg (rr 1); offset = 0 }, I.Reg (rf 1)); I.Bar ]
                (Prog.Jump "exit");
              block "exit" [] Prog.Ret;
            ]
        in
        let k' = Parser.kernel_of_string (Pp.kernel k) in
        check_s "identical text" (Pp.kernel k) (Pp.kernel k'));
    t "roundtrip preserves negative offsets and floats" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.Ld (I.Global, rf 0, { base = I.Reg (rr 0); offset = -8 });
                  I.Mov (rf 1, I.Imm_f 0.1);
                  I.Mov (rf 2, I.Imm_f (-1.25e-7));
                  I.Mov (rf 3, I.Imm_f 3.0);
                ]
                Prog.Ret;
            ]
        in
        let k' = Parser.kernel_of_string (Pp.kernel k) in
        check_b "equal" true (k = k'));
    t "parser rejects garbage" (fun () ->
        check_b "raises" true
          (try
             ignore (Parser.kernel_of_string ".kernel x () .smem 0 .lmem 0 { A: frobnicate; }");
             false
           with Parser.Error _ | Lexer.Error _ -> true));
    t "parser reports malformed structure as its own Error" (fun () ->
        (* Each parses token by token but fails [Prog.validate]; that
           must surface as [Parser.Error], not [Invalid_argument]. *)
        List.iter
          (fun (what, src) ->
            match Parser.kernel_of_string src with
            | _ -> Alcotest.failf "%s: accepted" what
            | exception Parser.Error msg ->
              check_b (what ^ ": " ^ msg) true (String.starts_with ~prefix:"Prog.validate: " msg))
          [
            ("unknown jump target", ".kernel x () .smem 0 .lmem 0 { A: jump B; }");
            ( "unknown reconvergence label",
              ".kernel x () .smem 0 .lmem 0 { A: @%p0 bra A else A join Z; }" );
            ( "undeclared parameter",
              ".kernel x (.param .gbuf A) .smem 0 .lmem 0 { B: mov.s32 %r0, $N; ret; }" );
            ("no blocks", ".kernel x () .smem 0 .lmem 0 { }");
          ]);
    t "parser rejects trailing input" (fun () ->
        check_b "raises" true
          (try
             ignore
               (Parser.kernel_of_string
                  ".kernel x () .smem 0 .lmem 0 { A: ret; } extra");
             false
           with Parser.Error _ -> true));
    t "parser checks ld destination class against suffix" (fun () ->
        check_b "raises" true
          (try
             ignore
               (Parser.kernel_of_string
                  ".kernel x (.param .gbuf A) .smem 0 .lmem 0 { A0: ld.global.f32 %r1, [$A]; ret; }");
             false
           with Parser.Error _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"roundtrip: random kernels (qcheck)" ~count:200
         QCheck.(int_range 0 100000)
         (fun seed ->
           let k = random_kernel seed in
           let k' = Parser.kernel_of_string (Pp.kernel k) in
           k = k'));
  ]

(* ------------------------------------------------------------------ *)
(* CFG and liveness                                                    *)
(* ------------------------------------------------------------------ *)

let diamond =
  simple_kernel
    [
      block "entry"
        [ I.Setp (I.CLt, Reg.S32, rp 0, I.Spec I.Tid_x, I.Imm_i 4); I.Mov (rf 0, I.Imm_f 1.0) ]
        (Prog.Br { pred = rp 0; negate = false; if_true = "t"; if_false = "f"; reconv = "join" });
      block "t" [ I.F2 (I.FAdd, rf 1, I.Reg (rf 0), I.Imm_f 1.0) ] (Prog.Jump "join");
      block "f" [ I.F2 (I.FAdd, rf 1, I.Reg (rf 0), I.Imm_f 2.0) ] (Prog.Jump "join");
      block "join"
        [ I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rf 1)) ]
        Prog.Ret;
    ]

let cfg_tests =
  [
    t "successors and predecessors of a diamond" (fun () ->
        let g = Cfg.of_kernel diamond in
        check_i "entry succs" 2 (List.length (Cfg.succs g).(Cfg.index g "entry"));
        check_i "join preds" 2 (List.length (Cfg.preds g).(Cfg.index g "join"));
        check_i "join succs" 0 (List.length (Cfg.succs g).(Cfg.index g "join")));
    t "reverse postorder starts at the entry" (fun () ->
        let g = Cfg.of_kernel diamond in
        match Cfg.reverse_postorder g with
        | 0 :: _ -> ()
        | _ -> Alcotest.fail "rpo must start at entry");
    t "rpo visits all reachable blocks once" (fun () ->
        let g = Cfg.of_kernel diamond in
        let rpo = Cfg.reverse_postorder g in
        check_i "count" 4 (List.length (List.sort_uniq compare rpo)));
    t "unreachable blocks are reported" (fun () ->
        let k =
          simple_kernel [ block "a" [] Prog.Ret; block "dead" [] Prog.Ret ]
        in
        check_b "dead found" true (Cfg.unreachable (Cfg.of_kernel k) = [ 1 ]));
    t "loop back edges are handled" (fun () ->
        let k =
          simple_kernel
            [
              block "pre" [ I.Mov (rr 0, I.Imm_i 0) ] (Prog.Jump "hdr");
              block "hdr"
                [ I.Setp (I.CLt, Reg.S32, rp 0, I.Reg (rr 0), I.Imm_i 10) ]
                (Prog.Br
                   { pred = rp 0; negate = false; if_true = "body"; if_false = "exit"; reconv = "exit" });
              block "body" [ I.I2 (I.IAdd, rr 0, I.Reg (rr 0), I.Imm_i 1) ] (Prog.Jump "hdr");
              block "exit" [] Prog.Ret;
            ]
        in
        let g = Cfg.of_kernel k in
        check_i "hdr preds" 2 (List.length (Cfg.preds g).(Cfg.index g "hdr")));
    t "liveness: value live across the diamond" (fun () ->
        let g = Cfg.of_kernel diamond in
        let l = Liveness.compute g in
        (* f0 is live into both branches; f1 live into join. *)
        check_b "f0 into t" true (Regbits.mem l.live_in.(Cfg.index g "t") (rf 0));
        check_b "f0 into f" true (Regbits.mem l.live_in.(Cfg.index g "f") (rf 0));
        check_b "f1 into join" true (Regbits.mem l.live_in.(Cfg.index g "join") (rf 1));
        check_b "f1 not live into entry" false (Regbits.mem l.live_in.(Cfg.index g "entry") (rf 1)));
    t "liveness: loop-carried register stays live in the loop" (fun () ->
        let k =
          simple_kernel
            [
              block "pre" [ I.Mov (rr 0, I.Imm_i 0) ] (Prog.Jump "hdr");
              block "hdr"
                [ I.Setp (I.CLt, Reg.S32, rp 0, I.Reg (rr 0), I.Imm_i 10) ]
                (Prog.Br
                   { pred = rp 0; negate = false; if_true = "body"; if_false = "exit"; reconv = "exit" });
              block "body" [ I.I2 (I.IAdd, rr 0, I.Reg (rr 0), I.Imm_i 1) ] (Prog.Jump "hdr");
              block "exit"
                [ I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rr 0)) ]
                Prog.Ret;
            ]
        in
        let g = Cfg.of_kernel k in
        let l = Liveness.compute g in
        check_b "r0 live out of body" true (Regbits.mem l.live_out.(Cfg.index g "body") (rr 0));
        check_b "r0 live out of hdr" true (Regbits.mem l.live_out.(Cfg.index g "hdr") (rr 0)));
    t "live_after_each tracks within-block kill points" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.Mov (rf 0, I.Imm_f 1.0);
                  I.F2 (I.FAdd, rf 1, I.Reg (rf 0), I.Imm_f 1.0);
                  I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rf 1));
                ]
                Prog.Ret;
            ]
        in
        let g = Cfg.of_kernel k in
        let l = Liveness.compute g in
        let after = Liveness.live_after_each l g 0 in
        check_b "f0 live after mov" true (Regbits.mem after.(0) (rf 0));
        check_b "f0 dead after add" false (Regbits.mem after.(1) (rf 0));
        check_b "f1 dead after store" false (Regbits.mem after.(2) (rf 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Register allocation                                                 *)
(* ------------------------------------------------------------------ *)

let regalloc_tests =
  [
    t "disjoint lifetimes share a physical register" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.Mov (rf 0, I.Imm_f 1.0);
                  I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rf 0));
                  I.Mov (rf 1, I.Imm_f 2.0);
                  I.St (I.Global, { base = I.Par "A"; offset = 4 }, I.Reg (rf 1));
                ]
                Prog.Ret;
            ]
        in
        let r = Regalloc.allocate k in
        check_i "one register suffices" 1 r.reg_count);
    t "overlapping lifetimes need distinct registers" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.Mov (rf 0, I.Imm_f 1.0);
                  I.Mov (rf 1, I.Imm_f 2.0);
                  I.F2 (I.FAdd, rf 2, I.Reg (rf 0), I.Reg (rf 1));
                  I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rf 2));
                ]
                Prog.Ret;
            ]
        in
        check_b ">= 2" true ((Regalloc.allocate k).reg_count >= 2));
    t "no interval conflicts on the diamond" (fun () ->
        check_b "ok" true (Regalloc.check_no_conflicts (Regalloc.allocate diamond)));
    t "apply keeps the program well-formed" (fun () ->
        let r = Regalloc.allocate diamond in
        ignore (Prog.validate (Regalloc.apply diamond r)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"no conflicting assignment on random kernels (qcheck)" ~count:100
         QCheck.(int_range 0 100000)
         (fun seed ->
           let k = random_kernel seed in
           Regalloc.check_no_conflicts (Regalloc.allocate k)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reg_count never exceeds virtual count (qcheck)" ~count:100
         QCheck.(int_range 0 100000)
         (fun seed ->
           let k = random_kernel seed in
           (Regalloc.allocate k).reg_count <= Reg.Set.cardinal (Prog.all_regs k)));
  ]

(* ------------------------------------------------------------------ *)
(* Scalar optimizations                                                *)
(* ------------------------------------------------------------------ *)

let body_of k = (List.hd (Opt.run k).Prog.blocks).Prog.body

let straightline instrs extra_live =
  (* Keep [extra_live] registers observable via stores. *)
  simple_kernel
    [
      block "a"
        (instrs
        @ List.mapi
            (fun i r -> I.St (I.Global, { base = I.Par "A"; offset = 4 * i }, I.Reg r))
            extra_live)
        Prog.Ret;
    ]

let opt_tests =
  [
    t "constant folding collapses arithmetic" (fun () ->
        let k =
          straightline
            [
              I.Mov (rf 0, I.Imm_f 3.0);
              I.F2 (I.FMul, rf 1, I.Reg (rf 0), I.Imm_f 2.0);
              I.F2 (I.FAdd, rf 2, I.Reg (rf 1), I.Imm_f 1.0);
            ]
            [ rf 2 ]
        in
        match body_of k with
        | [ I.St (_, _, I.Imm_f 7.0) ] -> ()
        | b -> Alcotest.failf "expected a single folded store, got %d instrs" (List.length b));
    t "integer identities simplify addressing" (fun () ->
        let k =
          straightline
            [
              I.I2 (I.IMul, rr 0, I.Spec I.Tid_x, I.Imm_i 1);
              I.I2 (I.IAdd, rr 1, I.Reg (rr 0), I.Imm_i 0);
              I.Imad (rr 2, I.Reg (rr 1), I.Imm_i 4, I.Imm_i 0);
              I.Ld (I.Global, rf 0, { base = I.Reg (rr 2); offset = 0 });
            ]
            [ rf 0 ]
        in
        (* mul-by-1 and add-0 vanish; the Imad becomes a single shl/mul. *)
        check_b "short" true (List.length (body_of k) <= 3));
    t "local CSE shares repeated address computations" (fun () ->
        let addr () = I.Imad (rr 0, I.Spec I.Tid_x, I.Imm_i 4, I.Par "A") in
        let k =
          simple_kernel
            [
              block "a"
                [
                  addr ();
                  I.Ld (I.Global, rf 0, { base = I.Reg (rr 0); offset = 0 });
                  I.Imad (rr 1, I.Spec I.Tid_x, I.Imm_i 4, I.Par "A");
                  I.St (I.Global, { base = I.Reg (rr 1); offset = 4 }, I.Reg (rf 0));
                ]
                Prog.Ret;
            ]
        in
        let b = body_of k in
        let mads = List.filter (function I.Imad _ -> true | _ -> false) b in
        check_i "single mad survives" 1 (List.length mads));
    t "CSE must not share across a redefinition" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.I2 (I.IAdd, rr 1, I.Reg (rr 0), I.Imm_i 1);
                  (* redefine the operand *)
                  I.I2 (I.IAdd, rr 0, I.Reg (rr 0), I.Imm_i 5);
                  I.I2 (I.IAdd, rr 2, I.Reg (rr 0), I.Imm_i 1);
                  I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rr 1));
                  I.St (I.Global, { base = I.Par "A"; offset = 4 }, I.Reg (rr 2));
                ]
                Prog.Ret;
            ]
        in
        let adds =
          List.filter (function I.I2 (I.IAdd, _, _, _) -> true | _ -> false) (body_of k)
        in
        check_b "both adds survive" true (List.length adds >= 2)
        (* note: rr0+1 before and after the redefinition are different values *));
    t "DCE removes dead pure code but keeps stores and barriers" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.Mov (rf 0, I.Imm_f 1.0);
                  (* dead *)
                  I.F1 (I.FSin, rf 1, I.Imm_f 2.0);
                  (* dead *)
                  I.Bar;
                  I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Imm_f 3.0);
                ]
                Prog.Ret;
            ]
        in
        match body_of k with
        | [ I.Bar; I.St _ ] -> ()
        | b -> Alcotest.failf "expected [bar; st], got %d instrs" (List.length b));
    t "dead loads are removed" (fun () ->
        let k =
          straightline [ I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 }) ] []
        in
        check_i "empty" 0 (List.length (body_of k)));
    t "integer mad with zero multiplicand folds to its addend" (fun () ->
        let k =
          straightline [ I.Imad (rr 0, I.Reg (rr 1), I.Imm_i 0, I.Imm_i 5) ] [ rr 0 ]
        in
        (match body_of k with
        | [ I.St (_, _, I.Imm_i 5) ] -> ()
        | _ -> Alcotest.fail "expected the constant addend");
        (* float mad with a zero multiplicand must NOT fold: x could be
           inf or nan, and our folder is IEEE-strict. *)
        let kf =
          straightline [ I.Fmad (rf 0, I.Reg (rf 1), I.Imm_f 0.0, I.Imm_f 5.0) ] [ rf 0 ]
        in
        check_b "float mad survives" true
          (List.exists (function I.Fmad _ -> true | _ -> false) (body_of kf)));
    t "setp on constants folds through selp" (fun () ->
        let k =
          straightline
            [
              I.Setp (I.CLt, Reg.S32, rp 0, I.Imm_i 1, I.Imm_i 2);
              I.Selp (rf 0, I.Imm_f 10.0, I.Imm_f 20.0, I.Reg (rp 0));
            ]
            [ rf 0 ]
        in
        match body_of k with
        | [ I.St (_, _, I.Imm_f 10.0) ] -> ()
        | _ -> Alcotest.fail "expected the selected constant");
    t "division by zero is not folded" (fun () ->
        let k = straightline [ I.I2 (I.IDiv, rr 0, I.Imm_i 5, I.Imm_i 0) ] [ rr 0 ] in
        check_b "division survives" true
          (List.exists (function I.I2 (I.IDiv, _, _, _) -> true | _ -> false) (body_of k)));
    t "adding +0.0 is not an identity (signed zero)" (fun () ->
        (* x + (+0.0) is +0.0 when x = -0.0, so the add must survive;
           x + (-0.0) is x for every x and may fold away. *)
        let with_addend z =
          straightline
            [
              I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 });
              I.F2 (I.FAdd, rf 1, I.Reg (rf 0), I.Imm_f z);
            ]
            [ rf 1 ]
        in
        check_b "+0.0 addend survives" true
          (List.exists
             (function I.F2 (I.FAdd, _, _, _) -> true | _ -> false)
             (body_of (with_addend 0.0)));
        check_b "-0.0 addend folds" false
          (List.exists
             (function I.F2 (I.FAdd, _, _, _) -> true | _ -> false)
             (body_of (with_addend (-0.0)))));
    t "cse does not reuse an expression clobbered by its own destination" (fun () ->
        (* [add f1, f1, f1] computes 2x into f1; the later textually
           identical [add f3, f1, f1] computes 4x and must stay. *)
        let k =
          straightline
            [
              I.Ld (I.Global, rf 1, { base = I.Par "A"; offset = 0 });
              I.F2 (I.FAdd, rf 1, I.Reg (rf 1), I.Reg (rf 1));
              I.F2 (I.FAdd, rf 3, I.Reg (rf 1), I.Reg (rf 1));
            ]
            [ rf 1; rf 3 ]
        in
        let adds =
          List.length
            (List.filter (function I.F2 (I.FAdd, _, _, _) -> true | _ -> false) (body_of k))
        in
        check_i "both adds survive" 2 adds);
    t "opt terminates (fixed point) and is idempotent" (fun () ->
        let k = Opt.run diamond in
        check_b "idempotent" true (Opt.run k = k));
    t "a repeated mul -> mad -> ld.const chain settles in two rounds" (fun () ->
        (* The second copy's [mad] reads the repeated [mul]: value
           numbering rewrites that [mul] to a copy of [%r1] and forwards
           it to the [mad] in the same walk, which then repeats too.
           One round rewrites, one confirms. *)
        let k =
          Parser.kernel_of_string
            ".kernel t (.param .cbuf A, .param .gbuf Out)\n.smem 0 .lmem 0\n{\nB0: .weight 1\n\
             mov.s32 %r0, %tid.x;\n\
             mul.s32 %r1, %r0, 5;\nmad.s32 %r2, %r1, 4, $A;\nld.const.f32 %f0, [%r2];\n\
             mul.s32 %r3, %r0, 5;\nmad.s32 %r4, %r3, 4, $A;\nld.const.f32 %f1, [%r4+4];\n\
             add.f32 %f2, %f0, %f1;\nst.global.f32 [$Out], %f2;\nret;\n}\n"
        in
        let rounds = ref 0 in
        let k' =
          Opt.fixpoint
            (fun ~round _ pass k ->
              rounds := max !rounds round;
              pass k)
            k
        in
        check_i "rounds" 2 !rounds;
        let count p = List.length (List.filter p (List.hd k'.Prog.blocks).Prog.body) in
        check_i "one mul" 1 (count (function I.I2 (I.IMul, _, _, _) -> true | _ -> false));
        check_i "one mad" 1 (count (function I.Imad _ -> true | _ -> false)));
  ]

(* ------------------------------------------------------------------ *)
(* Static profile estimation (Count)                                   *)
(* ------------------------------------------------------------------ *)

let count_tests =
  [
    t "weights multiply instruction counts" (fun () ->
        let k =
          simple_kernel
            [
              block ~weight:10.0 "a" [ I.Mov (rf 0, I.Imm_f 1.0); I.Bar ] Prog.Ret;
            ]
        in
        let p = Count.profile_of k in
        (* (2 body + 1 term) * 10 *)
        Alcotest.(check (float 1e-9)) "instr" 30.0 p.instr;
        Alcotest.(check (float 1e-9)) "barriers" 10.0 p.barriers);
    t "independent load runs count as one region unit" (fun () ->
        let body =
          [
            I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 });
            I.Ld (I.Global, rf 1, { base = I.Par "A"; offset = 4 });
            I.F2 (I.FAdd, rf 2, I.Reg (rf 0), I.Reg (rf 1));
          ]
        in
        let k = simple_kernel [ block "a" body Prog.Ret ] in
        let p = Count.profile_of k in
        Alcotest.(check (float 1e-9)) "one event" 1.0 p.mem_bar_events);
    t "a dependent load starts a new run" (fun () ->
        let body =
          [
            I.Ld (I.Global, rr 0, { base = I.Par "A"; offset = 0 });
            (* pointer chase: depends on the previous load *)
            I.Ld (I.Global, rf 1, { base = I.Reg (rr 0); offset = 0 });
          ]
        in
        let k = simple_kernel [ block "a" body Prog.Ret ] in
        Alcotest.(check (float 1e-9)) "two events" 2.0 (Count.profile_of k).mem_bar_events);
    t "address arithmetic between independent loads keeps the run open" (fun () ->
        let body =
          [
            I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 });
            I.Imad (rr 0, I.Spec I.Tid_x, I.Imm_i 4, I.Par "A");
            I.Ld (I.Global, rf 1, { base = I.Reg (rr 0); offset = 0 });
          ]
        in
        let k = simple_kernel [ block "a" body Prog.Ret ] in
        Alcotest.(check (float 1e-9)) "one event" 1.0 (Count.profile_of k).mem_bar_events);
    t "barriers close load runs and count themselves" (fun () ->
        let body =
          [
            I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 });
            I.Bar;
            I.Ld (I.Global, rf 1, { base = I.Par "A"; offset = 4 });
          ]
        in
        let k = simple_kernel [ block "a" body Prog.Ret ] in
        Alcotest.(check (float 1e-9)) "three events" 3.0 (Count.profile_of k).mem_bar_events);
    t "SFU runs are tracked separately" (fun () ->
        let body =
          [
            I.F1 (I.FRsqrt, rf 0, I.Imm_f 2.0);
            I.F2 (I.FAdd, rf 1, I.Reg (rf 0), I.Imm_f 1.0);
            I.F1 (I.FSin, rf 2, I.Reg (rf 1));
          ]
        in
        let k = simple_kernel [ block "a" body Prog.Ret ] in
        let p = Count.profile_of k in
        Alcotest.(check (float 1e-9)) "sfu events" 2.0 p.sfu_events;
        Alcotest.(check (float 1e-9)) "no mem events" 0.0 p.mem_bar_events);
    t "regions uses SFU events only when they dominate (paper rule)" (fun () ->
        Alcotest.(check (float 1e-9)) "sfu dominates" 11.0
          (Count.effective_events ~mem_bar:1.0 ~sfu:10.0);
        Alcotest.(check (float 1e-9)) "mem dominates" 10.0
          (Count.effective_events ~mem_bar:10.0 ~sfu:2.0));
    t "matmul-paper-scale profile: weighted barrier and load-pair counts" (fun () ->
        (* A synthetic kernel shaped like the paper's unrolled matmul:
           a loop body (weight 256) with one independent load pair and
           two barriers gives 256*(1+2) events; Regions = events + 1. *)
        let body =
          [
            I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 });
            I.Ld (I.Global, rf 1, { base = I.Par "A"; offset = 4 });
            I.Bar;
            I.Fmad (rf 2, I.Reg (rf 0), I.Reg (rf 1), I.Reg (rf 2));
            I.Bar;
          ]
        in
        let k =
          simple_kernel
            [
              block ~weight:256.0 "loop" body (Prog.Jump "exit");
              block "exit"
                [ I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rf 2)) ]
                Prog.Ret;
            ]
        in
        let p = Count.profile_of k in
        Alcotest.(check (float 1e-9)) "regions" 769.0 p.regions);
    t "mem_fraction" (fun () ->
        let k =
          simple_kernel
            [
              block "a"
                [
                  I.Ld (I.Global, rf 0, { base = I.Par "A"; offset = 0 });
                  I.F2 (I.FAdd, rf 1, I.Reg (rf 0), I.Imm_f 1.0);
                  I.St (I.Global, { base = I.Par "A"; offset = 0 }, I.Reg (rf 1));
                ]
                Prog.Ret;
            ]
        in
        Alcotest.(check (float 1e-9)) "fraction" 0.5 (Count.mem_fraction (Count.profile_of k)));
  ]

(* ------------------------------------------------------------------ *)
(* Resource report                                                     *)
(* ------------------------------------------------------------------ *)

let resource_tests =
  [
    t "resource report reflects declarations" (fun () ->
        let k =
          Prog.make ~name:"k"
            ~params:[ { Prog.pname = "A"; pty = Prog.PBuf I.Global } ]
            ~smem_words:100 ~lmem_words:3
            [ block "a" [ I.Mov (rf 0, I.Imm_f 1.0) ] Prog.Ret ]
        in
        let r = Resource.of_kernel k in
        check_i "smem bytes" 400 r.smem_bytes_per_block;
        check_i "lmem bytes" 12 r.lmem_bytes_per_thread;
        check_i "static" 2 r.static_instrs);
  ]

let suite =
  [
    ("ptx.reg", reg_tests);
    ("ptx.instr", instr_tests);
    ("ptx.prog", prog_tests);
    ("ptx.roundtrip", roundtrip_tests);
    ("ptx.cfg+liveness", cfg_tests);
    ("ptx.regalloc", regalloc_tests);
    ("ptx.opt", opt_tests);
    ("ptx.count", count_tests);
    ("ptx.resource", resource_tests);
  ]

(* ------------------------------------------------------------------ *)
(* Optimizer semantic preservation on random executable programs       *)
(* ------------------------------------------------------------------ *)

(* Random straight-line programs over a small register pool whose
   memory accesses are all in-bounds (A has 64 words, lanes index
   A[tid + small]).  Execute before and after [Opt.run] and compare the
   output buffer bit-for-bit. *)
let random_executable seed : Prog.t =
  let rng = Util.Rng.create seed in
  let pool_f = 4 and pool_r = 3 in
  (* Initialize every register so reads are deterministic. *)
  let init =
    List.init pool_f (fun k ->
        I.Mov (rf k, I.Imm_f (Util.Float32.round (Util.Rng.float_range rng (-4.0) 4.0))))
    @ List.init pool_r (fun k -> I.Mov (rr k, I.Imm_i (Util.Rng.int rng 16)))
    @ [ I.Imad (rr 3, I.Spec I.Tid_x, I.Imm_i 4, I.Par "A") ]
  in
  let fop () = List.nth [ I.FAdd; I.FSub; I.FMul; I.FMin; I.FMax ] (Util.Rng.int rng 5) in
  let iop () = List.nth [ I.IAdd; I.ISub; I.IMul; I.IAnd; I.IOr ] (Util.Rng.int rng 5) in
  let fsrc () =
    if Util.Rng.int rng 3 = 0 then
      I.Imm_f (Util.Float32.round (Util.Rng.float_range rng (-4.0) 4.0))
    else I.Reg (rf (Util.Rng.int rng pool_f))
  in
  let isrc () =
    if Util.Rng.int rng 3 = 0 then I.Imm_i (Util.Rng.int rng 8)
    else I.Reg (rr (Util.Rng.int rng pool_r))
  in
  let instr () =
    match Util.Rng.int rng 8 with
    | 0 -> I.F2 (fop (), rf (Util.Rng.int rng pool_f), fsrc (), fsrc ())
    | 1 -> I.Fmad (rf (Util.Rng.int rng pool_f), fsrc (), fsrc (), fsrc ())
    | 2 -> I.I2 (iop (), rr (Util.Rng.int rng pool_r), isrc (), isrc ())
    | 3 -> I.Mov (rf (Util.Rng.int rng pool_f), fsrc ())
    | 4 -> I.F1 (I.FAbs, rf (Util.Rng.int rng pool_f), fsrc ())
    | 5 ->
      (* in-bounds load: A[tid + 0..15] *)
      I.Ld (I.Global, rf (Util.Rng.int rng pool_f),
            { base = I.Reg (rr 3); offset = 4 * Util.Rng.int rng 16 })
    | 6 ->
      I.St (I.Global, { base = I.Reg (rr 3); offset = 4 * Util.Rng.int rng 16 }, fsrc ())
    | _ -> I.Setp (I.CLt, Reg.S32, rp 0, isrc (), isrc ())
  in
  let body = init @ List.init (10 + Util.Rng.int rng 30) (fun _ -> instr ()) in
  (* Make the register pool observable at the end. *)
  let finale =
    List.init pool_f (fun k ->
        I.St (I.Global, { base = I.Reg (rr 3); offset = 4 * (16 + k) }, I.Reg (rf k)))
  in
  Prog.validate (simple_kernel [ block "entry" (body @ finale) Prog.Ret ])

let run_buffer (k : Prog.t) : float array =
  let d = Gpu.Device.create () in
  let a = Gpu.Device.alloc d 64 in
  Gpu.Device.to_device d a (Array.init 64 (fun i -> Util.Float32.round (0.25 *. float_of_int i)));
  ignore
    (Gpu.Sim.run ~mode:Gpu.Sim.Functional d
       { Gpu.Sim.kernel = k; grid = (1, 1); block = (32, 1); args = [ ("A", Gpu.Sim.Buf a) ] });
  Gpu.Device.of_device d a

let opt_preservation_tests =
  [
    t "regression: inputs that once exposed optimizer miscompilations" (fun () ->
        (* 1139/3973/13638/15332: x + (+0.0) folded to x (wrong for
           x = -0.0); 18115/595595: CSE reused an expression whose
           destination overwrote one of its own operands. *)
        List.iter
          (fun seed ->
            let k = random_executable seed in
            let before = run_buffer k in
            let after = run_buffer (Opt.run k) in
            check_b
              (Printf.sprintf "seed %d preserved" seed)
              true
              (Array.for_all2 Util.Float32.equal_bits before after))
          [ 1139; 3973; 13638; 15332; 18115; 595595 ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Opt.run preserves program semantics (qcheck)" ~count:150
         QCheck.(int_range 0 1000000)
         (fun seed ->
           let k = random_executable seed in
           let before = run_buffer k in
           let after = run_buffer (Opt.run k) in
           Array.for_all2 Util.Float32.equal_bits before after));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Opt.value_number alone preserves program semantics (qcheck)"
         ~count:150
         QCheck.(int_range 0 1000000)
         (fun seed ->
           let k = random_executable seed in
           Array.for_all2 Util.Float32.equal_bits (run_buffer k)
             (run_buffer (Opt.value_number k))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Opt.run never grows the program (qcheck)" ~count:150
         QCheck.(int_range 0 1000000)
         (fun seed ->
           let k = random_executable seed in
           Prog.static_size (Opt.run k) <= Prog.static_size k));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"regalloc rewrite preserves semantics (qcheck)" ~count:60
         QCheck.(int_range 0 1000000)
         (fun seed ->
           let k = random_executable seed in
           let k' = Regalloc.apply k (Regalloc.allocate k) in
           Array.for_all2 Util.Float32.equal_bits (run_buffer k) (run_buffer k')));
  ]

let suite = suite @ [ ("ptx.opt-preservation", opt_preservation_tests) ]
