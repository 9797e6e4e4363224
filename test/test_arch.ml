(* The machine-model registry (PR 7): registry invariants, store-digest
   distinctness and legacy pinning, per-arch occupancy, cross-arch sweep
   determinism, served-equals-direct per arch, and the headline result —
   different machines pick different winning configurations. *)

module A = Gpu.Arch
module P = Tuner.Proto
module S = Tuner.Serve

let t name f = Alcotest.test_case name `Quick f
let check_b what = Alcotest.(check bool) what
let check_i what = Alcotest.(check int) what
let check_s what = Alcotest.(check string) what
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* ------------------------------------------------------------------ *)
(* Registry invariants                                                 *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    t "registry holds at least three models, g80 first" (fun () ->
        check_b "three or more" true (List.length A.archs >= 3);
        check_s "g80 first" "g80" (List.hd A.archs).A.name);
    t "names are unique and find round-trips every entry" (fun () ->
        let names = A.names in
        check_i "unique" (List.length names) (List.length (List.sort_uniq compare names));
        List.iter
          (fun (a : A.t) ->
            match A.find a.A.name with
            | Some b -> check_s ("find " ^ a.A.name) a.A.name b.A.name
            | None -> Alcotest.failf "find %s returned None" a.A.name)
          A.archs;
        check_b "unknown name" true (A.find "not-an-arch" = None));
    t "every model is simulable: warp 32, power-of-two banks" (fun () ->
        List.iter
          (fun (a : A.t) ->
            check_i (a.A.name ^ " warp") 32 a.A.limits.warp_size;
            check_b (a.A.name ^ " banks pow2") true (is_pow2 a.A.shared_banks);
            check_b (a.A.name ^ " positive clock") true (a.A.clock_ghz > 0.0))
          A.archs);
    t "g80 carries the paper's numbers verbatim" (fun () ->
        let g = A.g80 in
        check_i "SMs" 16 g.A.limits.num_sms;
        check_i "threads/SM" 768 g.A.limits.max_threads_per_sm;
        check_i "blocks/SM" 8 g.A.limits.max_blocks_per_sm;
        check_i "regs/SM" 8192 g.A.limits.regs_per_sm;
        check_i "smem/SM" 16384 g.A.limits.smem_per_sm;
        check_i "banks" 16 g.A.shared_banks;
        check_b "388.8 GFLOPS" true (Float.abs (A.peak_gflops g -. 388.8) < 0.01);
        check_b "4 B/cy/SM" true (Float.abs (A.bytes_per_cycle_per_sm g -. 4.0) < 0.01));
    t "the registry spans the design space" (fun () ->
        let wide = Option.get (A.find "wide32") and fpga = Option.get (A.find "fpga_soft") in
        check_i "wide32 banks" 32 wide.A.shared_banks;
        check_b "wide32 regs > g80" true
          (wide.A.limits.regs_per_sm > A.g80.A.limits.regs_per_sm);
        check_b "fpga regs < g80" true
          (fpga.A.limits.regs_per_sm < A.g80.A.limits.regs_per_sm);
        check_b "fpga block limit < g80" true
          (fpga.A.limits.max_threads_per_block < A.g80.A.limits.max_threads_per_block));
  ]

(* ------------------------------------------------------------------ *)
(* Store digests: legacy pinning and full-record distinctness          *)
(* ------------------------------------------------------------------ *)

(* The exact string the store hashed before the machine model became a
   value.  If this test fails, every pre-registry store on disk goes
   cold — treat the digest as frozen. *)
let legacy_g80_digest () =
  let l = A.g80.A.limits and lat = A.g80.A.latencies in
  Digest.to_hex
    (Digest.string
       (String.concat ","
          [
            "arch";
            string_of_int l.num_sms;
            string_of_int l.max_threads_per_sm;
            string_of_int l.max_blocks_per_sm;
            string_of_int l.regs_per_sm;
            string_of_int l.smem_per_sm;
            string_of_int l.max_threads_per_block;
            string_of_int A.g80.A.shared_banks;
            Printf.sprintf "%h" A.g80.A.clock_ghz;
            Printf.sprintf "%h" A.g80.A.global_bandwidth_gbs;
            string_of_int lat.issue;
            string_of_int lat.alu;
            string_of_int lat.sfu;
            string_of_int lat.sfu_issue;
            string_of_int lat.shared;
            string_of_int lat.global;
            string_of_int lat.coalesced_tx;
            string_of_int A.g80.A.scoreboard_depth;
          ]))

let digest_tests =
  [
    t "g80 digest is bit-identical to the pre-registry store digest" (fun () ->
        check_s "default = g80" (Tuner.Store.arch_digest ()) (Tuner.Store.arch_digest ~arch:A.g80 ());
        check_s "pinned legacy hash" (legacy_g80_digest ()) (Tuner.Store.arch_digest ()));
    t "every registry pair hashes differently" (fun () ->
        let ds = List.map (fun a -> Tuner.Store.arch_digest ~arch:a ()) A.archs in
        check_i "all distinct" (List.length ds) (List.length (List.sort_uniq compare ds)));
    t "two arches differing only in one latency hash differently" (fun () ->
        let bumped =
          { A.g80 with A.latencies = { A.g80.A.latencies with alu = A.g80.A.latencies.alu + 1 } }
        in
        check_b "alu latency splits the digest" false
          (String.equal (Tuner.Store.arch_digest ~arch:A.g80 ())
             (Tuner.Store.arch_digest ~arch:bumped ())));
    t "extension fields split the digest too" (fun () ->
        (* const_hit and flops/SM are outside the legacy 18-field list;
           the tagged extension entries must still separate them. *)
        let hit =
          {
            A.g80 with
            A.latencies = { A.g80.A.latencies with const_hit = A.g80.A.latencies.const_hit + 1 };
          }
        in
        let flops = { A.g80 with A.flops_per_sm_per_cycle = A.g80.A.flops_per_sm_per_cycle + 1 } in
        let d a = Tuner.Store.arch_digest ~arch:a () in
        check_b "const_hit" false (String.equal (d A.g80) (d hit));
        check_b "flops" false (String.equal (d A.g80) (d flops)));
  ]

(* ------------------------------------------------------------------ *)
(* Per-arch occupancy and launch guards                                *)
(* ------------------------------------------------------------------ *)

let occupancy_tests =
  [
    t "a 1024-thread block is invalid on g80, valid on wide32" (fun () ->
        let wide = Option.get (A.find "wide32") in
        let o arch = A.occupancy ~arch ~threads_per_block:1024 ~regs_per_thread:8 ~smem_per_block:0 () in
        check_b "g80 rejects" false (A.is_valid (o A.g80));
        check_b "wide32 accepts" true (A.is_valid (o wide)));
    t "a 512-thread block is valid on g80, invalid on fpga_soft" (fun () ->
        let fpga = Option.get (A.find "fpga_soft") in
        let o arch = A.occupancy ~arch ~threads_per_block:512 ~regs_per_thread:4 ~smem_per_block:0 () in
        check_b "g80 accepts" true (A.is_valid (o A.g80));
        check_b "fpga rejects" false (A.is_valid (o fpga)));
    t "register pressure caps occupancy differently per arch" (fun () ->
        let wide = Option.get (A.find "wide32") in
        let o arch =
          (A.occupancy ~arch ~threads_per_block:256 ~regs_per_thread:11 ~smem_per_block:4096 ())
            .A.blocks_per_sm
        in
        (* The paper's cliff: 11 regs -> 2 blocks on g80.  wide32's
           larger register file does not hit that wall. *)
        check_i "g80 cliff" 2 (o A.g80);
        check_b "wide32 above the cliff" true (o wide > 2));
    t "the simulator refuses a non-32-wide arch" (fun () ->
        let narrow = { A.g80 with A.limits = { A.g80.A.limits with warp_size = 16 } } in
        let k =
          {
            Kir.Ast.kname = "store1";
            scalar_params = [];
            array_params = [ { Kir.Ast.aname = "O"; aspace = Kir.Ast.Global } ];
            shared_decls = [];
            local_decls = [];
            body = [ Kir.Ast.Store ("O", Kir.Ast.tid_x, Kir.Ast.f 1.0) ];
          }
        in
        let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
        let dev = Gpu.Device.create () in
        let b = Gpu.Device.alloc dev 32 in
        let launch =
          { Gpu.Sim.kernel = ptx; grid = (1, 1); block = (32, 1); args = [ ("O", Gpu.Sim.Buf b) ] }
        in
        check_b "raises Launch_error" true
          (match Gpu.Sim.run ~arch:narrow dev launch with
          | (_ : Gpu.Sim.stats) -> false
          | exception Gpu.Sim.Launch_error _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Cross-arch sweeps: determinism, disagreement, served = direct       *)
(* ------------------------------------------------------------------ *)

let quick_matmul arch =
  (Option.get (Apps.Registry.find "matmul")).Apps.Registry.quick_candidates ~arch ()

let rows (r : Tuner.Search.result) =
  List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) r.exhaustive

let sweep_tests =
  [
    t "cross-arch sweep is bit-identical at jobs 1 and 4" (fun () ->
        let run jobs =
          Tuner.Search.run_archs ~jobs ~app_name:"matmul" ~archs:A.archs quick_matmul
        in
        let a = run 1 and b = run 4 in
        check_i "same arch count" (List.length a) (List.length b);
        List.iter2
          (fun (ra : Tuner.Search.arch_result) (rb : Tuner.Search.arch_result) ->
            check_s "arch order" ra.ar_arch.A.name rb.ar_arch.A.name;
            let xa = rows ra.ar_result and xb = rows rb.ar_result in
            check_i (ra.ar_arch.A.name ^ " row count") (List.length xa) (List.length xb);
            List.iter2
              (fun (d1, t1) (d2, t2) ->
                check_s "desc" d1 d2;
                if not (feq t1 t2) then Alcotest.failf "%s: %h vs %h" d1 t1 t2)
              xa xb;
            check_s "winner"
              ra.ar_result.Tuner.Search.selected_best.cand.desc
              rb.ar_result.Tuner.Search.selected_best.cand.desc)
          a b);
    t "at least one pair of arches disagrees on the winner" (fun () ->
        (* the true optima, not the Pareto-pruned picks: 16x16/1x1/uC on
           g80 and fpga_soft, 16x16/1x1/uC/pf on wide32 *)
        let rs = Tuner.Search.run_archs ~jobs:2 ~app_name:"matmul" ~archs:A.archs quick_matmul in
        let winners =
          List.map (fun (r : Tuner.Search.arch_result) -> r.ar_result.Tuner.Search.best.cand.desc) rs
        in
        check_b "winners not all equal" true
          (List.length (List.sort_uniq compare winners) > 1));
    t "a low-resource arch invalidates configurations a big one accepts" (fun () ->
        let fpga = Option.get (A.find "fpga_soft") in
        let valid arch =
          List.length
            (List.filter (fun (c : Tuner.Candidate.t) -> c.valid) (quick_matmul arch))
        in
        check_b "fpga_soft loses configs" true (valid fpga < valid A.g80));
    t "run_archs rejects a candidate list built for the wrong arch" (fun () ->
        check_b "invalid_arg" true
          (match
             Tuner.Search.run_archs ~jobs:1 ~app_name:"matmul" ~archs:A.archs (fun _ ->
                 quick_matmul A.g80)
           with
          | (_ : Tuner.Search.arch_result list) -> false
          | exception Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Service: per-arch requests                                          *)
(* ------------------------------------------------------------------ *)

let with_server (f : S.t -> 'a) : 'a =
  let file = Filename.temp_file "gpuopt-arch-test-" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let store = Tuner.Store.open_ ~file () in
      Fun.protect
        ~finally:(fun () -> Tuner.Store.close store)
        (fun () -> f (S.create ~jobs:2 ~store (Apps.Serving.resolver ()))))

let serve_tests =
  [
    t "served cross-arch explore equals the direct sweep, per arch" (fun () ->
        with_server (fun server ->
            List.iter
              (fun (arch : A.t) ->
                let direct =
                  Tuner.Search.run ~jobs:2 ~app_name:"matmul" (quick_matmul arch)
                in
                let x =
                  match
                    S.handle server
                      (P.Explore
                         {
                           app = "matmul";
                           scale = P.Quick;
                           chaos = None;
                           arch = Some arch.A.name;
                           predict = false;
                           deadline_ms = None;
                         })
                  with
                  | P.Explore_r x -> x
                  | _ -> Alcotest.failf "%s: no Explore_r" arch.A.name
                in
                check_s "reply echoes the arch" arch.A.name x.P.x_arch;
                check_i (arch.A.name ^ " space") direct.space_size x.P.x_space_size;
                check_s (arch.A.name ^ " winner") direct.selected_best.cand.desc
                  x.P.x_selected_best.P.m_desc;
                if not (feq direct.selected_best.time_s x.P.x_selected_best.P.m_time_s) then
                  Alcotest.failf "%s: served winner time differs" arch.A.name;
                List.iter2
                  (fun (d, tm) (r : P.measured_row) ->
                    check_s "row desc" d r.P.m_desc;
                    if not (feq tm r.P.m_time_s) then
                      Alcotest.failf "%s/%s: %h vs %h" arch.A.name d tm r.P.m_time_s)
                  (List.map
                     (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s))
                     direct.exhaustive)
                  x.P.x_exhaustive)
              A.archs));
    t "an omitted arch means g80; an unknown arch is a Bad_request" (fun () ->
        with_server (fun server ->
            (match
               S.handle server
                 (P.Tune { app = "matmul"; scale = P.Quick; arch = None; deadline_ms = None })
             with
            | P.Tune_r t -> check_s "default arch" "g80" t.P.t_arch
            | _ -> Alcotest.fail "no Tune_r");
            match
              S.handle server
                (P.Tune { app = "matmul"; scale = P.Quick; arch = Some "vliw99"; deadline_ms = None })
            with
            | P.Error_r { e_code = P.Bad_request; e_msg } ->
              let contains hay needle =
                let nh = String.length hay and nn = String.length needle in
                let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
                go 0
              in
              check_b "message names the registry" true (contains e_msg "g80")
            | _ -> Alcotest.fail "unknown arch was not rejected"));
    t "distinct arches never collide in the store" (fun () ->
        (* Same app, same scale, same candidate descs — the store keys
           must still differ because the arch digest differs. *)
        let wide = Option.get (A.find "wide32") in
        let key arch =
          let cands = quick_matmul arch in
          let descs =
            List.filter_map
              (fun (c : Tuner.Candidate.t) -> if c.valid then Some c.desc else None)
              cands
          in
          let space = Tuner.Store.space_digest ~app_name:"matmul" ~scale:"quick" descs in
          Tuner.Store.candidate_key
            ~arch:(Tuner.Store.arch_digest ~arch ())
            ~space (List.hd cands)
        in
        check_b "keys differ" false (String.equal (key A.g80) (key wide)));
  ]

let suite =
  [
    ("arch registry", registry_tests);
    ("arch digests", digest_tests);
    ("arch occupancy", occupancy_tests);
    ("arch sweeps", sweep_tests);
    ("arch serve", serve_tests);
  ]
