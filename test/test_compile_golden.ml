(* Compile golden: the compiled kernels themselves, pinned across commits.

   Store keys are kernel digests ([Tuner.Store.kernel_digest]), so any
   drift in the compiler — a pass that removes one more instruction, a
   different register count — silently turns every durable store cold
   and changes what the tuner characterizes.  The store suite only
   checks that two builds in one run agree; this table was captured
   before the PTX layer's dataflow moved to bitsets, and every change
   that means to leave compiled code alone must reproduce it.

   One md5 per (app, scale) over every candidate of the space, in
   enumeration order: its kernel digest, its allocated registers per
   thread and its static execution profile (floats as exact hex).

   With GPUOPT_GOLDEN_CAPTURE set, each case prints its row instead of
   asserting — the way to re-capture after a deliberate compiler
   change (say why in the commit). *)

let capture = Sys.getenv_opt "GPUOPT_GOLDEN_CAPTURE" <> None

let render (c : Tuner.Candidate.t) : string =
  let p = c.profile and h = Tuner.Hexfloat.to_string in
  String.concat " "
    [
      Tuner.Store.kernel_digest c;
      string_of_int c.resource.regs_per_thread;
      h p.instr;
      h p.regions;
      h p.mem_bar_events;
      h p.sfu_events;
      h p.sfu;
      h p.mem;
      h p.global_bytes;
      h p.barriers;
    ]

let digest (cands : Tuner.Candidate.t list) : string =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map render cands)))

(* (app, scale, candidates, md5 over [render] of each candidate). *)
let golden : (string * string * int * string) list =
  [
    ("matmul", "quick", 96, "c2e293f64ad3181b5b22ef81380e5e35");
    ("matmul", "reduced", 96, "1f0948d122cb3c129f4b683344361ae5");
    ("matmul", "bench", 96, "d84d125a2ea5f48545f233b9a129777b");
    ("matmul", "paper", 96, "128765974d062d33355fbafe78420b37");
    ("cp", "quick", 40, "e0e1af65a0e3b6f6742f5eb1973ba3a2");
    ("cp", "reduced", 40, "d559217298c361609c711b47a1ff350d");
    ("cp", "paper", 40, "58fa8e1077923319cb6711319c381942");
    ("sad", "quick", 648, "32e092309465ae350faf7f9c5a8a6067");
    ("sad", "reduced", 648, "02220226689210c7931e7d20bd06c19a");
    ("sad", "paper", 648, "c929d71efd89d81edfe5d7242179cef5");
    ("mri", "quick", 175, "130f6dda6501b8a8bba7e7e8d3bf895c");
    ("mri", "reduced", 175, "b3730016981b37a1ec9cd99505f79059");
    ("mri", "paper", 175, "32372eaa27e0b49deeba6050a47e9824");
  ]

(* The first and last valid candidates of every g80 space built so far,
   and every valid candidate of each arch's quick space, for the timing
   goldens below: they simulate these instead of compiling the space a
   second time. *)
let endpoints : (string * string, Tuner.Candidate.t * Tuner.Candidate.t) Hashtbl.t =
  Hashtbl.create 16

let quick_valid : (string * string, Tuner.Candidate.t list) Hashtbl.t = Hashtbl.create 16

let candidates_of ?arch (e : Apps.Registry.entry) scale =
  let cands =
    match scale with
    | "quick" -> e.quick_candidates ?arch ()
    | "reduced" -> e.reduced_candidates ?arch ()
    | "bench" -> e.bench_candidates ?arch ()
    | "paper" -> e.candidates ?arch ()
    | s -> failwith ("no scale " ^ s)
  in
  (match (arch, List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands) with
  | None, (first :: _ as valid) ->
    Hashtbl.replace endpoints (e.name, scale) (first, List.nth valid (List.length valid - 1))
  | Some a, valid when scale = "quick" ->
    Hashtbl.replace quick_valid (e.name, a.Gpu.Arch.name) valid
  | _ -> ());
  cands

let tests =
  List.map
    (fun (app, scale, count, md5) ->
      Alcotest.test_case (Printf.sprintf "compiled %s/%s candidates unchanged" app scale) `Quick
        (fun () ->
          let e = Option.get (Apps.Registry.find app) in
          let cands = candidates_of e scale in
          let got = digest cands in
          if capture then
            Printf.printf "    (%S, %S, %d, %S);\n%!" app scale (List.length cands) got
          else begin
            Alcotest.(check int) "candidates" count (List.length cands);
            Alcotest.(check string) "md5 of digests, registers and profiles" md5 got
          end))
    golden

(* Feature golden: what the model-driven race sees of each candidate.
   [Tuner.Predict.of_candidate] reads the static profile, occupancy,
   resources and the instruction-class mix; any drift in how those are
   accumulated changes every ranking, every fitted model digest and
   every race outcome, even when the compiled kernels are unchanged.

   One md5 per (app, arch, scale) over every candidate of the space, in
   enumeration order: its kernel digest and its feature vector (floats
   as exact hex, no rule database). *)

let feature_line (c : Tuner.Candidate.t) : string =
  String.concat " "
    (Tuner.Store.kernel_digest c
    :: Array.to_list (Array.map Tuner.Hexfloat.to_string (Tuner.Predict.of_candidate c)))

let feature_digest (cands : Tuner.Candidate.t list) : string =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map feature_line cands)))

(* (app, arch, scale, md5 over [feature_line] of each candidate). *)
let feature_golden : (string * string * string * string) list =
  [
    ("matmul", "g80", "quick", "9ba05cf41464b339a44ac8f873c30847");
    ("cp", "g80", "quick", "2fa4dab17e56e7a97184c790a13707be");
    ("sad", "g80", "quick", "edc1dd54b15909607ccad1b5ee18bccf");
    ("mri", "g80", "quick", "33baaf5e0a53e588f32a55a80602b737");
    ("matmul", "wide32", "quick", "0df4f516d25aafe6f819aa8a780fcaee");
    ("cp", "wide32", "quick", "de6236b6e1387bcb7a99460a34759b92");
    ("sad", "wide32", "quick", "932ee2fe04a96de2e31a795424d7ff34");
    ("mri", "wide32", "quick", "36292d1a7d478914a6875228d6a120eb");
    ("matmul", "fpga_soft", "quick", "10607d35d9a5bebfbd1486e420e814c5");
    ("cp", "fpga_soft", "quick", "9750f2f9505f5f2e84768afa7f28029b");
    ("sad", "fpga_soft", "quick", "a21e65d0cdd39cbdca43617150a9eb2a");
    ("mri", "fpga_soft", "quick", "0daedd7224cf716ee51ddde4676e5d13");
    ("matmul", "g80", "reduced", "424cec717ab9cd8f76fc64fea295db9c");
    ("cp", "g80", "reduced", "732698a1dc0fce2c868db6b648ca4b94");
    ("sad", "g80", "reduced", "1a9984ea0dd16d5413a2d166db8bf951");
    ("mri", "g80", "reduced", "362c3dd071cd77a908735a74731812a6");
  ]

let feature_tests =
  List.map
    (fun (app, arch_name, scale, md5) ->
      Alcotest.test_case (Printf.sprintf "features of %s/%s/%s unchanged" app arch_name scale)
        `Quick (fun () ->
          let e = Option.get (Apps.Registry.find app) in
          let arch = Option.get (Gpu.Arch.find arch_name) in
          let got = feature_digest (candidates_of ~arch e scale) in
          if capture then Printf.printf "    (%S, %S, %S, %S);\n%!" app arch_name scale got
          else Alcotest.(check string) "md5 of kernel digests and feature vectors" md5 got))
    feature_golden

(* Timing golden: each scale's problem data and timing-run [max_blocks]
   live in the candidates' run thunks, which neither golden above calls.
   One md5 per (app, scale) over the simulated times (exact hex) of the
   space's first and last valid candidates, on g80. *)
let timing_golden : (string * string * string) list =
  [
    ("matmul", "quick", "060d8db6663fbc5c8f3fbf09d2733fcc");
    ("matmul", "reduced", "b152d3667721a2af1b22b41e0a3db135");
    ("matmul", "bench", "6e7e8fa985dc5649a8ccd6653ce05f0f");
    ("matmul", "paper", "e3f76ef935c005f262d8a57fa30bc24c");
    ("cp", "quick", "83619f719ad3b50d6685159ba0b84da9");
    ("cp", "reduced", "7634b41e02d3f6fd61fad3943840567d");
    ("cp", "bench", "0d20828e2a42c371a71f1c305c3d41b8");
    ("cp", "paper", "0d20828e2a42c371a71f1c305c3d41b8");
    ("sad", "quick", "a6418e8538879deaa8cb5676360dbb63");
    ("sad", "reduced", "5c2014d614d54f27025b77d23368403d");
    ("sad", "bench", "28cb74d65c7577349af8b978158434e1");
    ("sad", "paper", "28cb74d65c7577349af8b978158434e1");
    ("mri", "quick", "2f26a710f1c23dd4db19d7aae5f40772");
    ("mri", "reduced", "49b3d6ff3b4990aedf098980f82e15ab");
    ("mri", "bench", "9c78f0671df7761fdef3a152763ea9cf");
    ("mri", "paper", "9c78f0671df7761fdef3a152763ea9cf");
  ]

let times_digest (cands : Tuner.Candidate.t list) : string =
  Digest.to_hex
    (Digest.string
       (String.concat " "
          (List.map (fun (c : Tuner.Candidate.t) -> Tuner.Hexfloat.to_string (c.run ())) cands)))

let timing_tests =
  List.map
    (fun (app, scale, md5) ->
      Alcotest.test_case (Printf.sprintf "simulated %s/%s endpoints unchanged" app scale) `Quick
        (fun () ->
          let e = Option.get (Apps.Registry.find app) in
          if not (Hashtbl.mem endpoints (app, scale)) then ignore (candidates_of e scale);
          let first, last = Hashtbl.find endpoints (app, scale) in
          let got = times_digest [ first; last ] in
          if capture then Printf.printf "    (%S, %S, %S);\n%!" app scale got
          else Alcotest.(check string) "md5 of the endpoints' simulated times" md5 got))
    timing_golden

(* Every machine's timing rules: one md5 per (app, arch) over the
   simulated times (exact hex) of every valid candidate of the quick
   space, in enumeration order, so a one-cycle drift on any candidate
   of any arch shows.  The candidates are the feature golden's. *)
let arch_timing_golden : (string * string * string) list =
  [
    ("matmul", "g80", "6cc825808b804ed08f5b6fa20252d91e");
    ("cp", "g80", "63192e8723611872d56c146993ff5d46");
    ("sad", "g80", "ed53dbb77dfb0dad69cb1c87286372cb");
    ("mri", "g80", "213246b020d854f3bfe342c48fb84ec7");
    ("matmul", "wide32", "a9fde5e1d00cbd3aa4371982c6c0abea");
    ("cp", "wide32", "7ade3c428f37ebcc893d6db62c1b84c5");
    ("sad", "wide32", "1527422ae1ca91fd3b774d5f41070ff0");
    ("mri", "wide32", "8733c7ed340894e373607fd4a277643e");
    ("matmul", "fpga_soft", "0c8c098b5fd592fe72ae8cbe4b5d1a2a");
    ("cp", "fpga_soft", "a942cd80cb4b771c0b0bc1de10416b99");
    ("sad", "fpga_soft", "cf5f03a8217aaf3799166dc83c47fc32");
    ("mri", "fpga_soft", "63b767b3ca36088be955451aada0bc7c");
  ]

let arch_timing_tests =
  List.map
    (fun (app, arch_name, md5) ->
      Alcotest.test_case (Printf.sprintf "simulated %s/%s quick candidates unchanged" app arch_name)
        `Quick (fun () ->
          let e = Option.get (Apps.Registry.find app) in
          let arch = Option.get (Gpu.Arch.find arch_name) in
          if not (Hashtbl.mem quick_valid (app, arch_name)) then
            ignore (candidates_of ~arch e "quick");
          let got = times_digest (Hashtbl.find quick_valid (app, arch_name)) in
          if capture then Printf.printf "    (%S, %S, %S);\n%!" app arch_name got
          else Alcotest.(check string) "md5 of every valid candidate's simulated time" md5 got))
    arch_timing_golden

let suite =
  [
    ("compile-golden", tests);
    ("feature-golden", feature_tests);
    ("timing-golden", timing_tests @ arch_timing_tests);
  ]
