(* Tests for the fault-tolerance layer: exception classification, the
   simulator watchdog, fault-aware measurement with kill/resume through
   the result store, graceful degradation in the search driver, and the
   chaos harness's end-to-end properties on the matmul space. *)

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify_tests =
  let tag e = Tuner.Fault.tag (Tuner.Fault.classify ~backtrace:"" e) in
  [
    t "pass failure classifies as a verifier rejection" (fun () ->
        match
          Tuner.Fault.classify ~backtrace:""
            (Tuner.Fault.Pass_failed { stage = "unroll"; reason = "bad" })
        with
        | Tuner.Fault.Verify_rejected { stage; reason } ->
          check_b "stage" true (stage = "unroll" && reason = "bad")
        | _ -> Alcotest.fail "wrong constructor");
    t "compiler exceptions name their stage" (fun () ->
        check_b "typecheck" true (tag (Kir.Typecheck.Type_error "x") = "compile");
        check_b "lower" true (tag (Kir.Lower.Lower_error "x") = "compile");
        check_b "mutate" true (tag (Kir.Mutate.Mutate_error "x") = "compile"));
    t "simulator exceptions map to launch/trap/watchdog" (fun () ->
        check_b "launch" true (tag (Gpu.Sim.Launch_error "too big") = "launch");
        check_b "trap" true (tag (Gpu.Sim.Trap "deadlock") = "trap");
        check_b "watchdog" true (tag (Gpu.Sim.Watchdog { issued = 11; budget = 10 }) = "watchdog");
        (* a stray stdlib exception is a bug, not a trap *)
        check_b "Failure" true (tag (Failure "x") = "crash");
        check_b "Invalid_argument" true (tag (Invalid_argument "x") = "crash"));
    t "unknown exceptions become worker crashes with the backtrace" (fun () ->
        match Tuner.Fault.classify ~backtrace:"frame1\nframe2" (Boom 3) with
        | Tuner.Fault.Worker_crash { exn_name; backtrace } ->
          check_b "name mentions the exception" true
            (String.length exn_name > 0 && backtrace = "frame1\nframe2")
        | _ -> Alcotest.fail "wrong constructor");
    t "run_candidate surfaces the thunk's fault" (fun () ->
        let c =
          Tuner.Candidate.make ~desc:"x" ~params:[]
            ~kernel:
              (Ptx.Prog.make ~name:"d" ~params:[] ~smem_words:0 ~lmem_words:0
                 [ Ptx.Prog.block "a" [] Ptx.Prog.Ret ])
            ~threads_per_block:64 ~threads_total:64
            ~run:(fun () -> raise (Gpu.Sim.Watchdog { issued = 5; budget = 4 }))
            ()
        in
        match Tuner.Fault.run_candidate c with
        | Error (Tuner.Fault.Watchdog_exceeded { issued = 5; budget = 4 }) -> ()
        | _ -> Alcotest.fail "expected a watchdog fault");
  ]

(* ------------------------------------------------------------------ *)
(* Journal encoding                                                    *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  let roundtrips (f : Tuner.Fault.t) (expect : Tuner.Fault.t) =
    match Tuner.Fault.of_journal (Tuner.Fault.to_journal f) with
    | Some g -> g = expect
    | None -> false
  in
  [
    t "every constructor round-trips" (fun () ->
        let cases =
          Tuner.Fault.
            [
              Compile_error { stage = "lower"; reason = "no loop" };
              Verify_rejected { stage = "cse#2"; reason = "unbound %r3" };
              Launch_error { reason = "grid too large" };
              Sim_trap { reason = "out-of-bounds load" };
              Watchdog_exceeded { issued = 100001; budget = 100000 };
            ]
        in
        List.iter (fun f -> check_b (Tuner.Fault.tag f) true (roundtrips f f)) cases);
    t "worker crash round-trips minus the backtrace" (fun () ->
        let f = Tuner.Fault.Worker_crash { exn_name = "Boom(3)"; backtrace = "stale frames" } in
        check_b "backtrace dropped" true
          (roundtrips f (Tuner.Fault.Worker_crash { exn_name = "Boom(3)"; backtrace = "" })));
    t "garbage decodes to None, not an exception" (fun () ->
        List.iter
          (fun s -> check_b s true (Tuner.Fault.of_journal s = None))
          [ ""; "nonsense"; "watchdog x y"; "compile \"unterminated"; "ok \"a\" 1.0" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reason strings round-trip through %S (qcheck)" ~count:300
         QCheck.(pair printable_string printable_string)
         (fun (stage, reason) ->
           let f = Tuner.Fault.Verify_rejected { stage; reason } in
           Tuner.Fault.of_journal (Tuner.Fault.to_journal f) = Some f));
  ]

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let run_tiny ?budget () =
  let c = Tuner.Pipeline.lower_opt Tuner.Chaos.tiny_kernel in
  let dev = Gpu.Device.create ~global_words:4 () in
  let out = Gpu.Device.alloc dev 1 in
  let launch =
    { Gpu.Sim.kernel = c.ptx; grid = (1, 1); block = (32, 1); args = [ ("out", Gpu.Sim.Buf out) ] }
  in
  Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = 1 }) ?budget dev launch

let watchdog_tests =
  [
    t "a runaway kernel is cut off with issued > budget" (fun () ->
        match Tuner.Chaos.runaway_time () with
        | (_ : float) -> Alcotest.fail "runaway terminated?"
        | exception Gpu.Sim.Watchdog { issued; budget } ->
          check_b "tripped just past the budget" true (issued > budget && budget = 100_000));
    t "the default budget catches runaways too" (fun () ->
        let stretched = Kir.Mutate.runaway_loop ~iters:1_000_000_000 Tuner.Chaos.tiny_kernel in
        let c = Tuner.Pipeline.lower_opt stretched in
        let dev = Gpu.Device.create ~global_words:4 () in
        let out = Gpu.Device.alloc dev 1 in
        let launch =
          {
            Gpu.Sim.kernel = c.ptx;
            grid = (1, 1);
            block = (32, 1);
            args = [ ("out", Gpu.Sim.Buf out) ];
          }
        in
        match Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = 1 }) dev launch with
        | (_ : Gpu.Sim.stats) -> Alcotest.fail "runaway terminated?"
        | exception Gpu.Sim.Watchdog { budget; _ } ->
          (* one warp, one block accounted: budget = the per-warp cap *)
          check_i "derived budget" Gpu.Sim.default_watchdog_per_warp budget;
          check_i "the cap" 1_000_000 budget);
    t "a terminating kernel is bit-identical with and without a budget" (fun () ->
        let s1 = run_tiny () in
        let s2 = run_tiny ~budget:max_int () in
        check_b "same stats" true (s1 = s2));
    t "budget must be positive" (fun () ->
        match run_tiny ~budget:0 () with
        | (_ : Gpu.Sim.stats) -> Alcotest.fail "accepted budget 0"
        | exception Gpu.Sim.Launch_error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Fault-aware measurement + kill/resume from the store                *)
(* ------------------------------------------------------------------ *)

let dummy_kernel =
  Ptx.Prog.make ~name:"dummy" ~params:[] ~smem_words:0 ~lmem_words:0
    [ Ptx.Prog.block "a" [] Ptx.Prog.Ret ]

let fake ~desc ~instr ~regions ~time : Tuner.Candidate.t =
  let base =
    Tuner.Candidate.make ~desc ~params:[] ~kernel:dummy_kernel ~threads_per_block:64
      ~threads_total:6400 ~run:(fun () -> time) ()
  in
  { base with profile = { base.profile with instr; regions } }

let fake_space n =
  List.init n (fun k ->
      fake
        ~desc:(Printf.sprintf "c%d" k)
        ~instr:(100.0 +. float_of_int (k * 37 mod 200))
        ~regions:(10.0 +. float_of_int (k * 17 mod 50))
        ~time:(1.0 +. float_of_int k))

let with_tmp f =
  let file = Filename.temp_file "gpuopt-test-" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

(* A kill -9 mid-append: cut [file] inside its last record, anywhere
   from one byte into it to just its final newline ([d] picks the
   offset). *)
let tear_last_record file d =
  let s = In_channel.with_open_bin file In_channel.input_all in
  let len = String.length s in
  let start = String.rindex_from s (len - 2) '\n' + 1 in
  let cut = start + 1 + (d mod (len - 1 - start)) in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc (String.sub s 0 cut))

(* Measure [cands] through an engine bound to [store]; returns the
   outcomes and the simulator runs the engine paid for. *)
let sweep_stored ~jobs ?cancel ?(app_name = "synthetic") store cands =
  let engine = Tuner.Measure.create ~app_name () in
  Tuner.Search.bind_store engine ~app_name cands ~store:(Some store) ~store_key:None
    ~store_scale:None;
  let outcomes = Tuner.Measure.measure_outcomes ~jobs ?cancel engine cands in
  (outcomes, (Tuner.Measure.stats engine).measure_runs)

let same_outcomes a b =
  List.equal
    (fun ((x : Tuner.Candidate.t), ox) ((y : Tuner.Candidate.t), oy) -> x.desc = y.desc && ox = oy)
    a b

let measure_tests =
  [
    t "a faulting candidate is measured-as-failed exactly once" (fun () ->
        let attempts = Atomic.make 0 in
        let bad =
          let c = fake ~desc:"bad" ~instr:100.0 ~regions:10.0 ~time:1.0 in
          { c with run = (fun () -> Atomic.incr attempts; raise (Gpu.Sim.Trap "trap")) }
        in
        let engine = Tuner.Measure.create ~app_name:"synthetic" () in
        let o1 = Tuner.Measure.measure_outcomes ~jobs:1 engine [ bad ] in
        let o2 = Tuner.Measure.measure_outcomes ~jobs:1 engine [ bad ] in
        check_i "one simulator attempt" 1 (Atomic.get attempts);
        let is_trap = function
          | [ (_, Error (Tuner.Fault.Sim_trap { reason = "trap" })) ] -> true
          | _ -> false
        in
        check_b "both calls see the cached fault" true (is_trap o1 && is_trap o2));
    t "time_exn on a faulted candidate names app, config and fault" (fun () ->
        let bad =
          let c = fake ~desc:"bad" ~instr:100.0 ~regions:10.0 ~time:1.0 in
          { c with run = (fun () -> raise (Gpu.Sim.Trap "sim exploded")) }
        in
        let engine = Tuner.Measure.create ~app_name:"myapp" () in
        ignore (Tuner.Measure.measure_outcomes ~jobs:1 engine [ bad ]);
        match Tuner.Measure.time_exn engine bad with
        | (_ : float) -> Alcotest.fail "expected a raise"
        | exception Invalid_argument msg ->
          let has needle =
            let nl = String.length needle and ml = String.length msg in
            let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
            go 0
          in
          check_b "names everything" true
            (has "myapp" && has "bad" && has "sim exploded"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"a sweep killed after k outcomes resumes from its store exactly (qcheck)" ~count:40
         QCheck.(triple (int_range 1 11) (int_range 1 2) (option small_nat))
         (fun (k, jobs, tear) ->
           (* c5 faults, so a settled fault must resume as one too. *)
           let cands =
             fake_space 12
             |> List.map (fun (c : Tuner.Candidate.t) ->
                    if c.desc = "c5" then { c with run = (fun () -> raise (Gpu.Sim.Trap "trap")) }
                    else c)
           in
           let n = List.length cands in
           let reference =
             Tuner.Measure.measure_outcomes ~jobs:1
               (Tuner.Measure.create ~app_name:"synthetic" ())
               cands
           in
           with_tmp (fun file ->
               let store = Tuner.Store.open_ ~file () in
               let cancel = Tuner.Cancel.create () in
               let stopped =
                 match sweep_stored ~jobs ~cancel store (Tuner.Chaos.kill_after ~cancel k cands) with
                 | (_ : _ * int) -> false
                 | exception Tuner.Cancel.Cancelled -> true
               in
               let settled = Tuner.Store.entries store in
               Tuner.Store.close store;
               Option.iter (tear_last_record file) tear;
               let store = Tuner.Store.open_ ~file () in
               let loaded = Tuner.Store.loaded store in
               let resumed, runs = sweep_stored ~jobs store cands in
               Tuner.Store.close store;
               (* Records appended after a torn tail must survive the
                  next load. *)
               let store = Tuner.Store.open_ ~file () in
               let final = Tuner.Store.loaded store in
               Tuner.Store.close store;
               (stopped || settled = n)
               && settled >= k
               && (jobs > 1 || settled = k)
               && (if tear = None then loaded = settled else loaded >= settled - 1)
               && runs = n - loaded
               && final = n
               && same_outcomes reference resumed)));
    t "a store written for another app or space serves none of it" (fun () ->
        with_tmp (fun file ->
            let store = Tuner.Store.open_ ~file () in
            let cands = fake_space 4 in
            let _, first = sweep_stored ~jobs:1 ~app_name:"appA" store cands in
            let _, same = sweep_stored ~jobs:1 ~app_name:"appA" store cands in
            let _, other_app = sweep_stored ~jobs:1 ~app_name:"appB" store cands in
            let _, other_space = sweep_stored ~jobs:1 ~app_name:"appA" store (fake_space 5) in
            let entries = Tuner.Store.entries store in
            Tuner.Store.close store;
            check_i "the first sweep pays for every point" 4 first;
            check_i "the same app and space resume for free" 0 same;
            check_i "another app measures everything again" 4 other_app;
            check_i "another space measures everything again" 5 other_space;
            check_i "each binding keeps its own records" 13 entries));
    t "damaged store records are re-measured on resume, the rest reused" (fun () ->
        with_tmp (fun file ->
            let cands = fake_space 6 in
            let reference =
              Tuner.Measure.measure_outcomes ~jobs:1
                (Tuner.Measure.create ~app_name:"synthetic" ())
                cands
            in
            let store = Tuner.Store.open_ ~file () in
            ignore (sweep_stored ~jobs:1 store cands);
            Tuner.Store.close store;
            (* Bit rot in the third record's time, then a line that is no
               record at all. *)
            let lines = In_channel.with_open_bin file In_channel.input_lines in
            let rot line =
              let last = String.length line - 1 in
              String.mapi (fun i ch -> if i = last then (if ch = '0' then '1' else '0') else ch) line
            in
            Out_channel.with_open_bin file (fun oc ->
                List.iteri
                  (fun i line ->
                    Out_channel.output_string oc (if i = 3 then rot line else line);
                    Out_channel.output_char oc '\n')
                  lines;
                Out_channel.output_string oc "ok not-a-quoted-desc zzz\n");
            let store = Tuner.Store.open_ ~file () in
            let loaded = Tuner.Store.loaded store in
            let corrupt = List.length (Tuner.Store.corrupt_entries store) in
            let resumed, runs = sweep_stored ~jobs:1 store cands in
            Tuner.Store.close store;
            check_i "the rotted record is skipped" 5 loaded;
            check_i "both damaged lines are reported" 2 corrupt;
            check_i "only the damaged point ran again" 1 runs;
            check_b "the resumed result equals the uninterrupted run" true
              (same_outcomes reference resumed)));
  ]

(* ------------------------------------------------------------------ *)
(* Graceful degradation in Search                                      *)
(* ------------------------------------------------------------------ *)

let search_tests =
  [
    t "fault-free runs report an empty fault list" (fun () ->
        let r = Tuner.Search.run ~jobs:1 ~app_name:"synthetic" (fake_space 8) in
        check_i "no faults" 0 (List.length r.faults));
    t "faulted candidates are excluded from every statistic" (fun () ->
        let cands =
          fake_space 8
          |> List.mapi (fun k (c : Tuner.Candidate.t) ->
                 if k = 0 then { c with run = (fun () -> raise (Gpu.Sim.Trap "dead")) } else c)
        in
        (* c0 has time 1.0 — the optimum — and it faults. *)
        let r = Tuner.Search.run ~jobs:1 ~app_name:"synthetic" cands in
        check_i "one fault" 1 (List.length r.faults);
        check_b "fault names the victim" true
          ((fst (List.hd r.faults)).desc = "c0");
        check_b "best skips the faulted optimum" true (r.best.cand.desc <> "c0");
        check_b "exhaustive excludes it" true
          (List.for_all (fun (m : Tuner.Search.measured) -> m.cand.desc <> "c0") r.exhaustive);
        check_b "selection excludes it" true
          (List.for_all (fun ((c : Tuner.Candidate.t), _) -> c.desc <> "c0") r.selected));
    t "fail_fast restores the abort semantics" (fun () ->
        (* Two victims: the first in input order is the one reported. *)
        let cands =
          fake_space 4
          |> List.mapi (fun k (c : Tuner.Candidate.t) ->
                 if k >= 2 then { c with run = (fun () -> raise (Gpu.Sim.Trap "dead")) } else c)
        in
        match Tuner.Search.run ~jobs:1 ~fail_fast:true ~app_name:"synthetic" cands with
        | (_ : Tuner.Search.result) -> Alcotest.fail "expected Fail"
        | exception Tuner.Fault.Fail { desc; _ } -> check_b "victim" true (desc = "c2"));
    t "fail_fast reports the first fault in input order under parallel workers" (fun () ->
        (* c4 faults at once; c1 holds its worker until c4 has settled (or
           a second has passed), so completion order is c4 before c1. *)
        let c4_settled = Atomic.make false in
        let cands =
          fake_space 6
          |> List.mapi (fun k (c : Tuner.Candidate.t) ->
                 match k with
                 | 1 ->
                   let run () =
                     let deadline = Unix.gettimeofday () +. 1.0 in
                     while (not (Atomic.get c4_settled)) && Unix.gettimeofday () < deadline do
                       Unix.sleepf 0.001
                     done;
                     raise (Gpu.Sim.Trap "late")
                   in
                   { c with run }
                 | 4 ->
                   { c with run = (fun () -> Atomic.set c4_settled true; raise (Gpu.Sim.Trap "early")) }
                 | _ -> c)
        in
        match Tuner.Search.run ~jobs:4 ~fail_fast:true ~app_name:"synthetic" cands with
        | (_ : Tuner.Search.result) -> Alcotest.fail "expected Fail"
        | exception Tuner.Fault.Fail { desc; fault } ->
          check_b "first in input order" true
            (desc = "c1" && fault = Tuner.Fault.Sim_trap { reason = "late" }));
    t "an all-faulted space is an error, not a crash" (fun () ->
        let cands =
          fake_space 3
          |> List.map (fun (c : Tuner.Candidate.t) ->
                 { c with run = (fun () -> raise (Gpu.Sim.Trap "dead")) })
        in
        match Tuner.Search.run ~jobs:1 ~app_name:"synthetic" cands with
        | (_ : Tuner.Search.result) -> Alcotest.fail "expected invalid_arg"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Chaos properties on the real matmul space                           *)
(* ------------------------------------------------------------------ *)

(* Built once: compiling and measuring the 96-point quick space per
   QCheck iteration would dominate the suite's runtime. *)
let matmul_quick = lazy (Apps.Registry.(Option.get (find "matmul")).quick_candidates ())

let baseline = lazy (Tuner.Search.run ~app_name:"matmul" (Lazy.force matmul_quick))

let chaos_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chaos: faults list exactly the injected set (qcheck)" ~count:4
         QCheck.(int_range 0 100000)
         (fun seed ->
           let cands = Lazy.force matmul_quick in
           let injected, injections = Tuner.Chaos.inject ~seed ~count:7 cands in
           let r = Tuner.Search.run ~app_name:"matmul" injected in
           List.sort compare (List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) r.faults)
           = List.sort compare
               (List.map (fun (i : Tuner.Chaos.injection) -> i.inj_desc) injections)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"chaos: selected_best survives faults that miss the frontier (qcheck)" ~count:4
         QCheck.(int_range 0 100000)
         (fun seed ->
           let cands = Lazy.force matmul_quick in
           let b = Lazy.force baseline in
           let avoid = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) b.selected in
           let injected, _ = Tuner.Chaos.inject ~seed ~count:7 ~avoid cands in
           let r = Tuner.Search.run ~app_name:"matmul" injected in
           r.selected_best.cand.desc = b.selected_best.cand.desc
           && r.selected_best.time_s = b.selected_best.time_s
           && List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) r.selected
              = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) b.selected));
  ]

let suite =
  [
    ("tuner.fault.classify", classify_tests);
    ("tuner.fault.journal", journal_tests);
    ("tuner.fault.watchdog", watchdog_tests);
    ("tuner.fault.measure", measure_tests);
    ("tuner.fault.search", search_tests);
    ("tuner.fault.chaos", chaos_tests);
  ]
