(* SAD: sums of absolute differences for MPEG motion estimation (the
   paper's Figure 4 full-space exploration and Figure 6(d)).

   For every 4x4 pixel macroblock of the current frame and every
   candidate motion vector in a square search window of the reference
   frame, compute
     sad(mb, v) = sum over 16 pixels |cur(p) - ref(p + v)|.

   Organization: one thread block per macroblock; its threads cover the
   candidate vectors, [tiling] vectors per thread.  Following the
   paper's blanket rule ("use of shared memory and caches to improve
   data locality for reused values ... we apply this optimization
   unconditionally", section 3.1), both the macroblock's 16
   current-frame pixels and the (mb + 2*sr)^2 reference search window
   are staged in shared memory; the remaining global traffic (window
   staging + result stores) is modest, which still leaves SAD the least
   GPU-friendly of the four applications (Table 3: 5.51x over the
   optimized scalar CPU baseline).

   Configuration axes (Table 4 row 3: "per-thread tiling, unroll factor
   (3 loops), work per block"):
   - [tpb]:    threads per block in {32, 64, ..., 384} — the work per
               block axis and Figure 4's x axis;
   - [tiling]: candidate vectors per thread in {1, 2, 4};
   - [u_vec]:  unroll of the per-thread vector loop (factors <= tiling);
   - [u_py], [u_px]: unroll of the two 4-iteration pixel loops, in
               {1, 2, 4} each.

   The raw cross product (with u_vec <= tiling) has 12*6*9 = 648
   points; configurations whose threads exceed the candidate count or
   whose resources do not fit are invalid. *)

open Kir.Ast

type config = { tpb : int; tiling : int; u_vec : int; u_py : int; u_px : int }

let space : config Tuner.Space.t =
  let open Tuner.Space in
  (let+ tpb =
     ints ~name:"threads/block" [ 32; 64; 96; 128; 160; 192; 224; 256; 288; 320; 352; 384 ]
   and+ tiling = ints ~name:"tiling" [ 1; 2; 4 ]
   and+ u_vec = ints ~name:"unroll vec" [ 1; 2; 4 ]
   and+ u_py = ints ~name:"unroll py" [ 1; 2; 4 ]
   and+ u_px = ints ~name:"unroll px" [ 1; 2; 4 ] in
   { tpb; tiling; u_vec; u_py; u_px })
  |> filter ~name:"u_vec <= tiling" (fun c -> c.u_vec <= c.tiling)

let describe (c : config) =
  Printf.sprintf "tpb%d/t%d/uv%d/uy%d/ux%d" c.tpb c.tiling c.u_vec c.u_py c.u_px

(* The three unrolls as named-loop passes.  The loops are selected by
   exact label — "px" and "py" used to be matched by string *prefix*,
   which a rename could silently defeat; [Named] raises instead.  The
   pixel loops are unrolled innermost-first (px, then py) so the py
   copies replicate already-unrolled px bodies, then the per-thread
   vector loop "t". *)
let schedule (c : config) : Tuner.Pipeline.schedule =
  let open Tuner.Pipeline in
  let unroll label factor =
    if factor = 1 then []
    else
      [
        kir_pass
          (Printf.sprintf "unroll(%s,%d)" label factor)
          (Kir.Unroll.apply ~select:(Kir.Unroll.Named label) ~factor);
      ]
  in
  {
    kir_passes = unroll "px" c.u_px @ unroll "py" c.u_py @ unroll "t" c.u_vec;
    ptx_passes = default_ptx_passes;
  }

(* Search geometry: vectors dx, dy in [-sr, sr), i.e. (2*sr)^2
   candidates per macroblock. *)
let mb = 4

(* ------------------------------------------------------------------ *)
(* Problem shapes                                                      *)
(* ------------------------------------------------------------------ *)

(* w x h frames searched at radius [sr]; [max_blocks] bounds the timing
   run. *)
type shape = { w : int; h : int; sr : int; max_blocks : int }

(* QCIF frames, as in the paper; the reduced search radius keeps
   full-space simulation tractable (the paper likewise used
   smaller-than-typical inputs). *)
let paper = { w = 176; h = 144; sr = 8; max_blocks = 8 }
let bench = paper
let reduced = { w = 48; h = 32; sr = 8; max_blocks = 8 }
let smoke = { w = 32; h = 16; sr = 2; max_blocks = 2 }

(* Generate the kernel for frame dimensions (w, h) and search radius
   [sr].  Grid: (number of macroblocks, chunks of candidate vectors).
   Block: [tpb] threads in x. *)
let kernel ({ w; h; sr; _ } : shape) (c : config) : kernel =
  let side = 2 * sr in
  let nvec = side * side in
  let mbx = w / mb in
  let win = mb + (2 * sr) in
  (* window side: candidate origins span [c-sr, c+sr), plus mb pixels *)
  let base =
    {
      kname = "sad_" ^ String.map (function '/' -> '_' | ch -> ch) (describe c);
      scalar_params = [];
      array_params =
        [
          { aname = "cur"; aspace = Global };
          { aname = "reff"; aspace = Global };
          { aname = "sads"; aspace = Global };
        ];
      shared_decls = [ ("curs", mb * mb); ("wins", win * win) ];
      local_decls = [];
      body =
        [
          (* Macroblock coordinates from the x grid index. *)
          Let ("mbx", S32, Bin (Rem, bid_x, i mbx));
          Let ("mby", S32, bid_x /: i mbx);
          Let ("cx", S32, v "mbx" *: i mb);
          Let ("cy", S32, v "mby" *: i mb);
          (* Stage the current macroblock in shared memory. *)
          If
            ( tid_x <: i (mb * mb),
              [
                Store
                  ( "curs",
                    tid_x,
                    Ld ("cur", ((v "cy" +: (tid_x /: i mb)) *: i w) +: (v "cx" +: Bin (Rem, tid_x, i mb))) );
              ],
              [] );
          (* Stage the reference search window cooperatively.  Border
             positions clamp into the frame; consumers never index the
             out-of-frame cells (their own coordinates are clamped the
             same way). *)
          For
            {
              var = "s";
              lo = tid_x;
              hi = i (win * win);
              step = i c.tpb;
              trip = Some (Util.Stats.cdiv (win * win) c.tpb);
              body =
                [
                  Let ("wy", S32, v "s" /: i win);
                  Let ("wx", S32, Bin (Rem, v "s", i win));
                  Let ("gy", S32, Bin (Max, i 0, Bin (Min, (v "cy" -: i sr) +: v "wy", i (h - 1))));
                  Let ("gx", S32, Bin (Max, i 0, Bin (Min, (v "cx" -: i sr) +: v "wx", i (w - 1))));
                  Store ("wins", (v "wy" *: i win) +: v "wx", Ld ("reff", (v "gy" *: i w) +: v "gx"));
                ];
            };
          Sync;
          (* First candidate vector index handled by this thread. *)
          Let ("v0", S32, ((bid_y *: i c.tpb) +: tid_x) *: i c.tiling);
          If (v "v0" >=: i nvec, [ Return ], []);
          for_ "t" (i 0) (i c.tiling)
            [
              Let ("vidx", S32, v "v0" +: v "t");
              Let ("dx", S32, Bin (Rem, v "vidx", i side) -: i sr);
              Let ("dy", S32, (v "vidx" /: i side) -: i sr);
              (* Clamp the candidate origin against the frame borders,
                 then rebase into window coordinates. *)
              Let ("rx", S32, Bin (Max, i 0, Bin (Min, v "cx" +: v "dx", i (w - mb))) -: (v "cx" -: i sr));
              Let ("ry", S32, Bin (Max, i 0, Bin (Min, v "cy" +: v "dy", i (h - mb))) -: (v "cy" -: i sr));
              Mut ("acc", F32, f 0.0);
              for_ "py" (i 0) (i mb)
                [
                  for_ "px" (i 0) (i mb)
                    [
                      Let ("cv", F32, Ld ("curs", (v "py" *: i mb) +: v "px"));
                      Let
                        ( "rv",
                          F32,
                          Ld ("wins", ((v "ry" +: v "py") *: i win) +: (v "rx" +: v "px")) );
                      Assign ("acc", v "acc" +: Un (Abs, v "cv" -: v "rv"));
                    ];
                ];
              Store ("sads", (bid_x *: i nvec) +: v "vidx", v "acc");
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
  cur : Gpu.Device.buffer;
  reff : Gpu.Device.buffer;
  sads : Gpu.Device.buffer;
  hcur : float array;
  href : float array;
}

let setup ({ w; h; sr; _ } as shape : shape) : problem =
  let mbs = w / mb * (h / mb) in
  let nvec = 4 * sr * sr in
  let dev = Gpu.Device.create ~global_words:((2 * w * h) + (mbs * nvec)) () in
  let cur = Gpu.Device.alloc dev (w * h) in
  let reff = Gpu.Device.alloc dev (w * h) in
  let sads = Gpu.Device.alloc dev (mbs * nvec) in
  let hcur = Workload.frame ~seed:17 ~width:w ~height:h ~shift_x:0 ~shift_y:0 () in
  let href = Workload.frame ~seed:17 ~width:w ~height:h ~shift_x:3 ~shift_y:(-2) () in
  Gpu.Device.to_device dev cur hcur;
  Gpu.Device.to_device dev reff href;
  { shape; dev; cur; reff; sads; hcur; href }

let launch_shape (p : problem) (c : config) : (int * int) * (int * int) =
  let { w; h; sr; _ } = p.shape in
  let mbs = w / mb * (h / mb) in
  let nvec = 4 * sr * sr in
  let chunks = Util.Stats.cdiv nvec (c.tpb * c.tiling) in
  ((mbs, chunks), (c.tpb, 1))

let args_of (p : problem) : (string * Gpu.Sim.arg) list =
  [ ("cur", Gpu.Sim.Buf p.cur); ("reff", Gpu.Sim.Buf p.reff); ("sads", Gpu.Sim.Buf p.sads) ]

include App.Make (struct
  type nonrec config = config
  type nonrec shape = shape
  type nonrec problem = problem

  let name = "sad"
  let display = "SAD"
  let title = "sums of absolute differences for motion estimation (Figure 4)"
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
let cpu_reference (p : problem) : float array =
  let { w; h; sr; _ } = p.shape in
  let mbx = w / mb and mby = h / mb in
  let side = 2 * sr in
  let nvec = side * side in
  let out = Array.make (mbx * mby * nvec) 0.0 in
  for bi = 0 to (mbx * mby) - 1 do
    let cx = bi mod mbx * mb and cy = bi / mbx * mb in
    for vi = 0 to nvec - 1 do
      let dx = (vi mod side) - sr and dy = (vi / side) - sr in
      let rx = max 0 (min (cx + dx) (w - mb)) in
      let ry = max 0 (min (cy + dy) (h - mb)) in
      let acc = ref 0.0 in
      for py = 0 to mb - 1 do
        for px = 0 to mb - 1 do
          let cv = p.hcur.(((cy + py) * w) + cx + px) in
          let rv = p.href.(((ry + py) * w) + rx + px) in
          acc := Util.Float32.add !acc (Util.Float32.abs (Util.Float32.sub cv rv))
        done
      done;
      out.((bi * nvec) + vi) <- !acc
    done
  done;
  out

(* Functional validation of one configuration at [shape] against the
   reference. *)
let validate (shape : shape) (cfg : config) : bool =
  let p = run_functional shape cfg in
  Array.for_all2 Util.Float32.close (Gpu.Device.of_device p.dev p.sads) (cpu_reference p)

(* Pixel-difference operations for Table 3 accounting. *)
let absdiff_ops ({ w; h; sr; _ } : shape) = float_of_int (w / mb * (h / mb) * 4 * sr * sr * mb * mb)
