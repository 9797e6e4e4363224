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

let candidates_of (e : Apps.Registry.entry) = function
  | "quick" -> e.quick_candidates ()
  | "reduced" -> e.reduced_candidates ()
  | "paper" -> e.candidates ()
  | s -> failwith ("no scale " ^ s)

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

let suite = [ ("compile-golden", tests) ]
