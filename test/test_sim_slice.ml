(* The timing slice and the device contract of timing launches.

   A [Timing] launch executes only the registers and memory spaces
   whose values can reach a branch or an address ([Gpu.Sim.timing_slice])
   and writes nothing of the device it is given.  Four defenses:

   - a QCheck property over generated kernels whose control flow and
     addresses depend on loaded values: a one-block timing launch
     reports the same warp instructions, global transactions and bytes,
     bank-conflict cycles and per-site counters as a one-block
     functional launch, which computes every value (and whose outputs
     must equal [Kir.Interp]'s);
   - every quick configuration of the four apps, launched for timing on
     its staged device, leaves that device bit-identical, and its slice
     keeps no memory space, so no app launch copies the device;
   - a kernel that stores a global word and reloads it as an address
     keeps global memory in its slice: its timing launch runs on a
     private copy and still leaves the caller's device bit-identical;
   - an out-of-range load or store outside the slice, in each space
     and one word past the last global buffer, raises what the
     functional launch raises, from a later lane too, and a functional
     store that traps has written the lanes before the trapping one. *)

open Kir.Ast

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)

(* Random race-free kernels in the style of [Test_sim_golden.gen_kernel],
   each drawing some of:
   - a branch on a loaded value;
   - a gather from A through an index loaded from I;
   - an index passed through another thread's shared-memory slot, which
     then addresses shared memory (strided, so banks conflict) and A;
   - a word stored to W and reloaded by the same thread, which then
     addresses A.
   The passed and reloaded indices are the thread's own, so a timing
   launch that read stale memory instead would address memory
   differently and move the counters.  Every thread writes only O[g],
   W[g] and its own shared slot, and reads shared memory only after a
   barrier, so outputs do not depend on warp order. *)
let gen_slice_kernel ~threads rng : kernel =
  let flag () = Util.Rng.int rng 2 = 0 in
  let branch = flag () and gather = flag () and via_shared = flag () and reload = flag () in
  let diverge = flag () in
  let add e = Assign ("r", v "r" +: e) in
  let shared =
    if via_shared then
      let stride = 1 lsl Util.Rng.int rng 3 in
      [
        Store ("sh", tid_x, Un (ToF, (tid_x +: i 1) %: i threads));
        Sync;
        Let ("k", S32, Un (ToI, Ld ("sh", (tid_x +: i (threads - 1)) %: i threads)));
        add (Ld ("sh", (v "k" *: i stride) %: i threads));
        add (Ld ("A", (bid_x *: bdim_x) +: v "k"));
      ]
    else []
  in
  let store =
    if diverge then
      [
        If
          ( Bin (Rem, v "g", i 2) =: i 0,
            [ Store ("O", v "g", v "r") ],
            [ Store ("O", v "g", v "r" +: f 1.0) ] );
      ]
    else [ Store ("O", v "g", v "r") ]
  in
  {
    kname = "slice";
    scalar_params = [ ("alpha", F32); ("n", S32) ];
    array_params =
      List.map (fun aname -> { aname; aspace = Global }) [ "O"; "A"; "I"; "W" ];
    shared_decls = (if via_shared then [ ("sh", threads) ] else []);
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        If
          ( v "g" <: Param "n",
            [
              Let ("x0", F32, Ld ("A", v "g"));
              Let ("y", F32, v "x0" *: f 0.5);
              Mut ("r", F32, Test_sim_golden.gen_f rng 2);
            ]
            @ (if branch then
                 [
                   If
                     ( v "x0" <: f 0.0,
                       [ add (Test_sim_golden.gen_f rng 1) ],
                       [ Assign ("r", v "r" *: f 0.5) ] );
                 ]
               else [])
            @ (if gather then [ Let ("j", S32, Un (ToI, Ld ("I", v "g"))); add (Ld ("A", v "j")) ]
               else [])
            @ shared
            @ (if reload then
                 [
                   Store ("W", v "g", Un (ToF, v "g"));
                   Let ("w", S32, Un (ToI, Ld ("W", v "g")));
                   add (Ld ("A", v "w"));
                 ]
               else [])
            @ store,
            [] );
      ];
  }

(* A staged problem of [n] threads: A small floats of both signs, I
   indices into A, W zeros, O zeros. *)
let stage rng ~n : Gpu.Device.t * (string * Gpu.Sim.arg) list * Gpu.Device.buffer =
  let d = Gpu.Device.create () in
  let buf () = Gpu.Device.alloc d n in
  let o = buf () and a = buf () and ix = buf () and w = buf () in
  Gpu.Device.to_device d a
    (Array.init n (fun _ -> Util.Float32.round (Util.Rng.float_range rng (-2.0) 2.0)));
  Gpu.Device.to_device d ix (Array.init n (fun _ -> float_of_int (Util.Rng.int rng n)));
  let args =
    [
      ("O", Gpu.Sim.Buf o);
      ("A", Gpu.Sim.Buf a);
      ("I", Gpu.Sim.Buf ix);
      ("W", Gpu.Sim.Buf w);
      ("alpha", Gpu.Sim.F 0.5);
      ("n", Gpu.Sim.I n);
    ]
  in
  (d, args, o)

(* A device's whole memory image, bitwise. *)
let image (d : Gpu.Device.t) : int64 array * int64 array * int * int =
  let bits a = Array.map Int64.bits_of_float a in
  (bits d.Gpu.Device.glob, bits d.Gpu.Device.cst, d.Gpu.Device.glob_brk, d.Gpu.Device.cst_brk)

(* The statistics a timing launch shares with a functional one. *)
let counters (s : Gpu.Sim.stats) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "warp_instrs=%d tx=%d bytes=%d conflict=%d" s.warp_instrs s.gmem_transactions
    s.gmem_bytes s.bank_conflict_extra;
  List.iter
    (fun (sc : Gpu.Sim.site_counter) ->
      Printf.bprintf b "; %s[%d] e=%d tx=%d by=%d rp=%d" sc.sc_label sc.sc_index sc.sc_execs
        sc.sc_tx sc.sc_bytes sc.sc_replays)
    s.site_counters;
  Buffer.contents b

let timing ?(max_blocks = 1) dev launch =
  Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks }) dev launch

(* One seed: the timing launch leaves its device as it found it and
   agrees with the functional launch on every shared counter, and the
   functional outputs equal the interpreter's. *)
let timing_matches_functional seed : bool =
  let rng = Util.Rng.create seed in
  let threads = 32 * (1 + Util.Rng.int rng 4) in
  let k = gen_slice_kernel ~threads rng in
  Kir.Typecheck.check k;
  let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
  let data = Util.Rng.int rng 1_000_000 in
  let staged () = stage (Util.Rng.create data) ~n:threads in
  let launch args = { Gpu.Sim.kernel = ptx; grid = (1, 1); block = (threads, 1); args } in
  let d, args, o = staged () in
  let before = image d in
  let ts = timing d (launch args) in
  let untouched = image d = before in
  let fs = Gpu.Sim.run ~mode:Gpu.Sim.Functional d (launch args) in
  let di, args_i, o_i = staged () in
  Kir.Interp.run di k ~grid:(1, 1) ~block:(threads, 1) ~args:args_i;
  let same_outputs =
    Array.for_all2 Util.Float32.equal_bits (Gpu.Device.of_device d o)
      (Gpu.Device.of_device di o_i)
  in
  if not untouched then QCheck.Test.fail_reportf "seed %d: the timing launch wrote its device" seed;
  if counters ts <> counters fs then
    QCheck.Test.fail_reportf "seed %d:\n timing     %s\n functional %s" seed (counters ts)
      (counters fs);
  same_outputs

(* Every quick configuration of each app as its staged device, its
   timing runs' [max_blocks] and its launches. *)
let quick_launches () : (string * Gpu.Device.t * int * Gpu.Sim.launch list) list =
  let each space compile launch_of =
    List.map
      (fun cfg -> launch_of cfg (compile cfg).Tuner.Pipeline.ptx)
      (Tuner.Space.configs space)
  in
  let matmul =
    let s = Apps.Matmul.smoke in
    let p = Apps.Matmul.setup s in
    ( "matmul",
      p.Apps.Matmul.dev,
      s.Apps.Matmul.max_blocks,
      each Apps.Matmul.space (Apps.Matmul.compile s) (Apps.Matmul.launch_of p) )
  in
  let cp =
    let s = Apps.Cp.smoke in
    let p = Apps.Cp.setup s in
    ("cp", p.Apps.Cp.dev, s.Apps.Cp.max_blocks, each Apps.Cp.space (Apps.Cp.compile s) (Apps.Cp.launch_of p))
  in
  let sad =
    let s = Apps.Sad.smoke in
    let p = Apps.Sad.setup s in
    ("sad", p.Apps.Sad.dev, s.Apps.Sad.max_blocks, each Apps.Sad.space (Apps.Sad.compile s) (Apps.Sad.launch_of p))
  in
  let mri =
    let s = Apps.Mri_fhd.smoke in
    let p = Apps.Mri_fhd.setup s in
    ( "mri",
      p.Apps.Mri_fhd.dev,
      s.Apps.Mri_fhd.max_blocks,
      each Apps.Mri_fhd.space (Apps.Mri_fhd.compile s) (Apps.Mri_fhd.launch_of p) )
  in
  [ matmul; cp; sad; mri ]

let slice_of (k : Ptx.Prog.t) : Gpu.Sim.slice =
  let nf, nr, np = Ptx.Prog.regfile_sizes k in
  Gpu.Sim.timing_slice k ~nf ~nr ~np

(* Thread g stores g to W[g], reloads it and reads A at it. *)
let store_reload_kernel : kernel =
  {
    kname = "store_reload";
    scalar_params = [ ("n", S32) ];
    array_params = List.map (fun aname -> { aname; aspace = Global }) [ "O"; "A"; "W" ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        Store ("W", v "g", Un (ToF, v "g"));
        Let ("w", S32, Un (ToI, Ld ("W", v "g")));
        Store ("O", v "g", Ld ("A", v "w"));
      ];
  }

let contract_tests =
  [
    t "timing launches of every quick app configuration write no device and copy none" (fun () ->
        List.iter
          (fun (app, dev, max_blocks, launches) ->
            let before = image dev in
            let launched = ref 0 in
            List.iter
              (fun (l : Gpu.Sim.launch) ->
                let s = slice_of l.Gpu.Sim.kernel in
                if s.keep_global || s.keep_shared || s.keep_local then
                  Alcotest.failf "%s: a kernel's slice keeps a memory space" app;
                match timing ~max_blocks dev l with
                | (_ : Gpu.Sim.stats) -> incr launched
                | exception Gpu.Sim.Launch_error _ -> (* no block fits an SM *) ())
              launches;
            check_b (app ^ " launched") true (!launched > 0);
            check_b (app ^ " device untouched") true (image dev = before))
          (quick_launches ()));
    t "a reloaded global address is kept, and timed on a private copy" (fun () ->
        let k = store_reload_kernel in
        Kir.Typecheck.check k;
        let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
        check_b "global kept" true (slice_of ptx).keep_global;
        let n = 64 in
        let d = Gpu.Device.create () in
        let o = Gpu.Device.alloc d n and a = Gpu.Device.alloc d n and w = Gpu.Device.alloc d n in
        Gpu.Device.to_device d a (Array.init n float_of_int);
        let launch =
          {
            Gpu.Sim.kernel = ptx;
            grid = (n / 32, 1);
            block = (32, 1);
            args =
              [ ("O", Gpu.Sim.Buf o); ("A", Gpu.Sim.Buf a); ("W", Gpu.Sim.Buf w); ("n", Gpu.Sim.I n) ];
          }
        in
        let before = image d in
        let ts = timing ~max_blocks:8 d { launch with grid = (1, 1) } in
        check_b "device untouched" true (image d = before);
        (* Reloaded W[g] = g: A is read coalesced, one 64-byte
           transaction per half-warp, as in the functional run. *)
        let fs = Gpu.Sim.run ~mode:Gpu.Sim.Functional d { launch with grid = (1, 1) } in
        Alcotest.(check string) "counters" (counters fs) (counters ts);
        check_b "functional wrote W" true (Gpu.Device.get d w 5 = 5.0));
  ]

(* One out-of-range access per kernel, whose value no branch or
   address reads, so a timing launch runs its timing-only form: it must
   raise exactly what the functional launch raises.  O and A are the
   only global buffers, 32 words each, so A[g + 32] is past the last
   one from lane 0 on, which is still inside the device's backing
   array. *)
let out_of_range_tests =
  let g = v "g" in
  let cases =
    [
      ("global load", Store ("O", g, Ld ("A", g +: i 100_000)));
      ("global store", Store ("O", g +: i 100_000, f 1.0));
      ("global load one word past the last buffer", Store ("O", g, Ld ("A", g +: i 32)));
      ("global store one word past the last buffer", Store ("A", g +: i 32, f 1.0));
      ("constant load", Store ("O", g, Ld ("C", g +: i 20_000)));
      ("shared load", Store ("O", g, Ld ("sh", tid_x +: i 64)));
      ("shared store", Store ("sh", tid_x +: i 64, f 1.0));
      ("local load", Store ("O", g, Ld ("lm", tid_x +: i 8)));
      ("local store", Store ("lm", tid_x +: i 8, f 1.0));
    ]
  in
  [
    t "out-of-range accesses outside the slice raise the functional launch's errors" (fun () ->
        List.iter
          (fun (name, stmt) ->
            let k =
              {
                kname = "oob";
                scalar_params = [];
                array_params =
                  [ { aname = "O"; aspace = Global }; { aname = "A"; aspace = Global };
                    { aname = "C"; aspace = Const } ];
                shared_decls = [ ("sh", 32) ];
                local_decls = [ ("lm", 4) ];
                body = [ Let ("g", S32, (bid_x *: bdim_x) +: tid_x); stmt ];
              }
            in
            Kir.Typecheck.check k;
            let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
            let s = slice_of ptx in
            check_b (name ^ ": no space kept") false (s.keep_global || s.keep_shared || s.keep_local);
            let raised mode =
              let d = Gpu.Device.create () in
              let o = Gpu.Device.alloc d 32 and a = Gpu.Device.alloc d 32 in
              let c = Gpu.Device.alloc_const d 16 in
              let args = [ ("O", Gpu.Sim.Buf o); ("A", Gpu.Sim.Buf a); ("C", Gpu.Sim.Buf c) ] in
              match
                Gpu.Sim.run ~mode d { Gpu.Sim.kernel = ptx; grid = (1, 1); block = (32, 1); args }
              with
              | (_ : Gpu.Sim.stats) -> "no error"
              | exception ((Gpu.Sim.Trap _ | Gpu.Sim.Launch_error _) as e) -> Printexc.to_string e
            in
            let functional = raised Gpu.Sim.Functional in
            check_b (name ^ ": functional raises") true (functional <> "no error");
            Alcotest.(check string) name functional (raised (Gpu.Sim.Timing { max_blocks = 1 })))
          cases);
  ]

(* The same contract from a later lane, and the state a trapping store
   leaves: lanes 0 to 4 address words 0 to 4, and lane 5 is the first
   whose word lies past its space.  Both launches must raise the error
   naming lane 5's address, so bounds are checked in lane order; a
   functional global store must have written lanes 0 to 4 and none
   after, as one pass over the lanes does. *)
let lane_order_tests =
  let k = 5 in
  let past far = tid_x +: ((tid_x /: i k) *: i far) in
  let ld arr far = Store ("O", tid_x, Ld (arr, past far)) in
  let st arr far = Store (arr, past far, Un (ToF, tid_x +: i 1)) in
  let trap fn addr = Gpu.Sim.Trap (Printf.sprintf "Device.%s: address %d out of range" fn addr) in
  let oob what addr =
    Gpu.Sim.Launch_error (Printf.sprintf "%s out of bounds (addr %d)" what addr)
  in
  (* O, then A, are the first global buffers (32 words each); C is the
     first constant one. *)
  let lane_k far = 4 * (k + far) in
  let cases =
    [
      ("global load", ld "A" 100_000, trap "read_global" (128 + lane_k 100_000));
      ("global store", st "O" 100_000, trap "write_global" (lane_k 100_000));
      ("constant load", ld "C" 20_000, trap "read_const" (lane_k 20_000));
      ("shared load", ld "sh" 64, oob "shared load" (lane_k 64));
      ("shared store", st "sh" 64, oob "shared store" (lane_k 64));
      ("local load", ld "lm" 64, oob "local load" (lane_k 64));
      ("local store", st "lm" 64, oob "local store" (lane_k 64));
    ]
  in
  [
    t "the first out-of-range lane raises, after a store wrote the lanes before it" (fun () ->
        List.iter
          (fun (name, stmt, expected) ->
            let kern =
              {
                kname = "lane_order";
                scalar_params = [];
                array_params =
                  [ { aname = "O"; aspace = Global }; { aname = "A"; aspace = Global };
                    { aname = "C"; aspace = Const } ];
                shared_decls = [ ("sh", 32) ];
                local_decls = [ ("lm", 8) ];
                body = [ stmt ];
              }
            in
            Kir.Typecheck.check kern;
            let ptx = Ptx.Opt.run (Kir.Lower.lower kern) in
            let s = slice_of ptx in
            check_b (name ^ ": no space kept") false (s.keep_global || s.keep_shared || s.keep_local);
            let d = Gpu.Device.create () in
            let o = Gpu.Device.alloc d 32 and a = Gpu.Device.alloc d 32 in
            let c = Gpu.Device.alloc_const d 16 in
            let raised mode =
              let args = [ ("O", Gpu.Sim.Buf o); ("A", Gpu.Sim.Buf a); ("C", Gpu.Sim.Buf c) ] in
              match
                Gpu.Sim.run ~mode d { Gpu.Sim.kernel = ptx; grid = (1, 1); block = (32, 1); args }
              with
              | (_ : Gpu.Sim.stats) -> "no error"
              | exception ((Gpu.Sim.Trap _ | Gpu.Sim.Launch_error _) as e) -> Printexc.to_string e
            in
            let expected = Printexc.to_string expected in
            Alcotest.(check string) (name ^ ": functional") expected (raised Gpu.Sim.Functional);
            let written = Gpu.Device.of_device d o in
            Alcotest.(check string) (name ^ ": timing") expected
              (raised (Gpu.Sim.Timing { max_blocks = 1 }));
            check_b (name ^ ": timing wrote nothing") true (Gpu.Device.of_device d o = written);
            if name = "global store" then
              Alcotest.(check (array (float 0.0)))
                "lanes before the trap stored, the rest did not"
                (Array.init 32 (fun l -> if l < k then float_of_int (l + 1) else 0.0))
                written)
          cases);
  ]

let slice_props =
  [
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      (QCheck.Test.make
         ~name:"one-block timing launch counts what a functional one does (qcheck)" ~count:150
         QCheck.(int_range 0 100_000)
         timing_matches_functional);
  ]

let suite = [ ("sim-slice", slice_props @ contract_tests @ out_of_range_tests @ lane_order_tests) ]
