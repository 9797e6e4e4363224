(* MRI-FHD: computation of the image-specific vector F^H d used in
   non-Cartesian 3-D MRI reconstruction (Stone et al.; the paper's
   Figure 6(b) and Table 4 row 4).

   For every voxel x the kernel accumulates, over all k-space samples,
     re(x) += rRe_k * cos(arg) - rIm_k * sin(arg)
     im(x) += rIm_k * cos(arg) + rRe_k * sin(arg)
   with arg = 2*pi * (kx*x + ky*y + kz*z).  Sample data lives in
   constant memory; sin/cos run on the SFUs, so like CP this kernel's
   long-latency behaviour inside the loop is SFU work.

   Configuration axes (Table 4 row 4: "block size, unroll factor, work
   per kernel invocation"):
   - [tpb]:    threads per block in {64, 96, 128, 192, 256};
   - [unroll]: sample-loop unroll factor in {1, 2, 4, 8, 16};
   - [wpt]:    voxels processed sequentially per thread, in {1..7}.
               The paper's third axis splits the same total work across
               kernel invocations; sequential voxel tiling is the
               in-simulator equivalent with the same metric signature —
               per-thread work scales by [wpt] while the thread count
               scales by 1/[wpt], leaving both Efficiency and
               Utilization unchanged.  This produces the paper's
               clusters of seven metric-identical configurations
               (Figure 6(b)).

   5 * 5 * 7 = 175 raw configurations, the paper's exact space size. *)

open Kir.Ast

type config = { tpb : int; unroll : int; wpt : int }

let space : config Tuner.Space.t =
  let open Tuner.Space in
  let+ tpb = ints ~name:"block" [ 64; 96; 128; 192; 256 ]
  and+ unroll = ints ~name:"unroll" [ 1; 2; 4; 8; 16 ]
  and+ wpt = ints ~name:"work/thread" [ 1; 2; 3; 4; 5; 6; 7 ] in
  { tpb; unroll; wpt }

let describe (c : config) = Printf.sprintf "tpb%d/u%d/w%d" c.tpb c.unroll c.wpt

(* One optimization axis changes the pass schedule: the sample-loop
   unroll, selected by exact loop label. *)
let schedule (c : config) : Tuner.Pipeline.schedule =
  if c.unroll = 1 then []
  else
    [
      Tuner.Pipeline.kir_pass
        (Printf.sprintf "unroll(k,%d)" c.unroll)
        (Kir.Unroll.apply ~select:(Kir.Unroll.Named "k") ~factor:c.unroll);
    ]

let two_pi = Util.Float32.round (2.0 *. Float.pi)

(* ------------------------------------------------------------------ *)
(* Problem shapes                                                      *)
(* ------------------------------------------------------------------ *)

(* [nvox] voxels and [nsamples] k-space samples; [max_blocks] bounds the
   timing run. *)
type shape = { nsamples : int; nvox : int; max_blocks : int }

(* 107520 = 420 * 256: divisible by every wpt in 1..7 and large enough
   that even the smallest grids (wpt = 7, 256-thread blocks) still give
   every SM several blocks, so cluster members differ only through real
   machine effects. *)
let paper = { nsamples = 64; nvox = 107520; max_blocks = 3 }
let bench = paper
let reduced = { paper with nsamples = 16 }
let smoke = { nsamples = 8; nvox = 3360; max_blocks = 1 }

(* Sample layout in constant memory: [kx; ky; kz; re; im] per sample.
   Voxel coordinates are three global arrays; outputs two global
   arrays. *)
let kernel ({ nsamples; nvox; _ } : shape) (c : config) : kernel =
  let base =
    {
      kname = "mri_" ^ String.map (function '/' -> '_' | ch -> ch) (describe c);
      scalar_params = [];
      array_params =
        [
          { aname = "samp"; aspace = Const };
          { aname = "vx"; aspace = Global };
          { aname = "vy"; aspace = Global };
          { aname = "vz"; aspace = Global };
          { aname = "outre"; aspace = Global };
          { aname = "outim"; aspace = Global };
        ];
      shared_decls = [];
      local_decls = [];
      body =
        [
          Let ("tid", S32, (bid_x *: i c.tpb) +: tid_x);
          (* The grid is padded up to a whole number of blocks; excess
             threads exit before touching memory. *)
          If (v "tid" >=: i (nvox / c.wpt), [ Return ], []);
          for_ "w" (i 0) (i c.wpt)
            [
              Let ("voxel", S32, (v "w" *: i (nvox / c.wpt)) +: v "tid");
              Let ("x", F32, Ld ("vx", v "voxel"));
              Let ("y", F32, Ld ("vy", v "voxel"));
              Let ("z", F32, Ld ("vz", v "voxel"));
              Mut ("re", F32, f 0.0);
              Mut ("im", F32, f 0.0);
              for_ "k" (i 0) (i nsamples)
                [
                  Let ("kx", F32, Ld ("samp", v "k" *: i 5));
                  Let ("ky", F32, Ld ("samp", (v "k" *: i 5) +: i 1));
                  Let ("kz", F32, Ld ("samp", (v "k" *: i 5) +: i 2));
                  Let ("sre", F32, Ld ("samp", (v "k" *: i 5) +: i 3));
                  Let ("sim", F32, Ld ("samp", (v "k" *: i 5) +: i 4));
                  Let
                    ( "arg",
                      F32,
                      f two_pi
                      *: ((v "kx" *: v "x") +: ((v "ky" *: v "y") +: (v "kz" *: v "z"))) );
                  Let ("ca", F32, Un (Cos, v "arg"));
                  Let ("sa", F32, Un (Sin, v "arg"));
                  Assign ("re", v "re" +: ((v "sre" *: v "ca") -: (v "sim" *: v "sa")));
                  Assign ("im", v "im" +: ((v "sim" *: v "ca") +: (v "sre" *: v "sa")));
                ];
              Store ("outre", v "voxel", v "re");
              Store ("outim", v "voxel", v "im");
            ];
        ];
    }
  in
  base

(* ------------------------------------------------------------------ *)
(* Host-side problem                                                   *)
(* ------------------------------------------------------------------ *)

type problem = {
  shape : shape;
  dev : Gpu.Device.t;
  samp : Gpu.Device.buffer;
  vx : Gpu.Device.buffer;
  vy : Gpu.Device.buffer;
  vz : Gpu.Device.buffer;
  outre : Gpu.Device.buffer;
  outim : Gpu.Device.buffer;
  hsamp : float array;
  hvx : float array;
  hvy : float array;
  hvz : float array;
}

let setup ({ nsamples; nvox; _ } as shape : shape) : problem =
  let dev = Gpu.Device.create ~global_words:(8 * nvox) () in
  let samp = Gpu.Device.alloc_const dev (5 * nsamples) in
  let vx = Gpu.Device.alloc dev nvox in
  let vy = Gpu.Device.alloc dev nvox in
  let vz = Gpu.Device.alloc dev nvox in
  let outre = Gpu.Device.alloc dev nvox in
  let outim = Gpu.Device.alloc dev nvox in
  let hsamp = Workload.mri_samples ~seed:19 ~n:nsamples () in
  let hvx, hvy, hvz = Workload.mri_voxels ~n:nvox in
  Gpu.Device.to_device dev samp hsamp;
  Gpu.Device.to_device dev vx hvx;
  Gpu.Device.to_device dev vy hvy;
  Gpu.Device.to_device dev vz hvz;
  { shape; dev; samp; vx; vy; vz; outre; outim; hsamp; hvx; hvy; hvz }

let launch_shape (p : problem) (c : config) : (int * int) * (int * int) =
  let threads = p.shape.nvox / c.wpt in
  ((Util.Stats.cdiv threads c.tpb, 1), (c.tpb, 1))

let args_of (p : problem) : (string * Gpu.Sim.arg) list =
  [
    ("samp", Gpu.Sim.Buf p.samp);
    ("vx", Gpu.Sim.Buf p.vx);
    ("vy", Gpu.Sim.Buf p.vy);
    ("vz", Gpu.Sim.Buf p.vz);
    ("outre", Gpu.Sim.Buf p.outre);
    ("outim", Gpu.Sim.Buf p.outim);
  ]

include App.Make (struct
  type nonrec config = config
  type nonrec shape = shape
  type nonrec problem = problem

  let name = "mri"
  let display = "MRI-FHD"
  let title = "F^H d for non-Cartesian MRI reconstruction (Figure 6(b))"
  let space = space
  let describe = describe
  let schedule = schedule
  let kernel = kernel
  let setup = setup
  let device p = p.dev
  let launch_shape = launch_shape
  let args_of = args_of
  let max_blocks s = s.max_blocks
  let paper = paper
  let bench = bench
  let smoke = smoke
  let reduced = reduced
end)

(* Single-thread CPU reference. *)
let cpu_reference (p : problem) : float array * float array =
  let module F = Util.Float32 in
  let { nsamples; nvox; _ } = p.shape in
  let re = Array.make nvox 0.0 and im = Array.make nvox 0.0 in
  for vo = 0 to nvox - 1 do
    let x = p.hvx.(vo) and y = p.hvy.(vo) and z = p.hvz.(vo) in
    let are = ref 0.0 and aim = ref 0.0 in
    for k = 0 to nsamples - 1 do
      let kx = p.hsamp.(5 * k) and ky = p.hsamp.((5 * k) + 1) and kz = p.hsamp.((5 * k) + 2) in
      let sre = p.hsamp.((5 * k) + 3) and sim = p.hsamp.((5 * k) + 4) in
      let arg = F.mul two_pi (F.add (F.mul kx x) (F.add (F.mul ky y) (F.mul kz z))) in
      let ca = F.cos arg and sa = F.sin arg in
      are := F.add !are (F.sub (F.mul sre ca) (F.mul sim sa));
      aim := F.add !aim (F.add (F.mul sim ca) (F.mul sre sa))
    done;
    re.(vo) <- !are;
    im.(vo) <- !aim
  done;
  (re, im)

(* Functional validation of one configuration at [shape] against the
   reference. *)
let validate (shape : shape) (cfg : config) : bool =
  let p = run_functional shape cfg in
  let want_re, want_im = cpu_reference p in
  let close = Util.Float32.close ~rtol:1e-3 ~atol:1e-3 in
  Array.for_all2 close (Gpu.Device.of_device p.dev p.outre) want_re
  && Array.for_all2 close (Gpu.Device.of_device p.dev p.outim) want_im

(* (voxel, sample) interactions for Table 3 accounting. *)
let interactions ({ nsamples; nvox; _ } : shape) = float_of_int (nvox * nsamples)
