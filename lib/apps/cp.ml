(* CP: coulombic potential over a 2-D grid slice (the paper's Figure 5
   and Figure 6(c); derived from the "Unroll8y" kernel of Stone et al.,
   accelerating molecular modeling).

   Each thread computes the electric potential at [tiling] grid points:
     V(p) = sum_j q_j / |p - atom_j|
   with atom data resident in constant memory and the reciprocal
   square root on the SFUs.  The kernel's inner loop touches no
   off-chip memory, so SFU instructions are the long-latency behaviour
   the Utilization metric regions on (paper section 4).

   Configuration axes (Table 4 row 2: "block size, per-thread tiling,
   coalescing of output"):
   - [block]:    threads per block, (16, by) with by in {2,4,8,16};
   - [tiling]:   results per thread along x, in {1,2,4,8,16}
                 (Figure 5's x axis);
   - [coalesce]: output layout — coalesced configurations have each
                 thread write points strided by the block width, so a
                 half-warp's stores land in one 64B segment;
                 uncoalesced ones give each thread [tiling] adjacent
                 points.

   4*5*2 = 40 raw points; high-tiling configurations whose register
   demand exceeds what 256-thread blocks can occupy become invalid,
   leaving a space of about the paper's 38. *)

open Kir.Ast

type config = { block_y : int; tiling : int; coalesce : bool }

let space : config Tuner.Space.t =
  let open Tuner.Space in
  let+ block_y = axis ~name:"block" ~show:(Printf.sprintf "16x%d") [ 2; 4; 8; 16 ]
  and+ tiling = ints ~name:"tiling" [ 1; 2; 4; 8; 16 ]
  and+ coalesce = bools ~name:"coalesced" [ true; false ] in
  { block_y; tiling; coalesce }

let block_x = 16

let describe (c : config) =
  Printf.sprintf "b16x%d/t%d%s" c.block_y c.tiling (if c.coalesce then "/co" else "/unco")

(* Every configuration axis changes the generated kernel, not a KIR
   pass, so the schedule is the bare default pipeline. *)
let schedule (_ : config) : Tuner.Pipeline.schedule = Tuner.Pipeline.default_schedule

(* ------------------------------------------------------------------ *)
(* Problem shapes                                                      *)
(* ------------------------------------------------------------------ *)

(* An npx x npy grid slice and [natoms] atoms; [max_blocks] bounds the
   timing run. *)
type shape = { npx : int; npy : int; natoms : int; max_blocks : int }

let paper = { npx = 2048; npy = 128; natoms = 128; max_blocks = 8 }
let bench = paper
let reduced = { paper with natoms = 8 }
let smoke = { npx = 256; npy = 16; natoms = 16; max_blocks = 2 }

(* Atom data layout in constant memory: [x; y; z; q] per atom.  The
   grid slice lies at z = z0 with unit spacing scaled by [1/scale]. *)
let kernel ({ natoms; _ } : shape) (c : config) : kernel =
  let t = c.tiling in
  let sums = List.init t (fun j -> Printf.sprintf "pot%d" j) in
  (* Point x-coordinates per accumulator.  Coalesced: thread [tid_x]
     covers x0 + j*16 (strided by the block width, so a half-warp's
     stores are contiguous).  Uncoalesced: each thread owns [tiling]
     adjacent points x0 + j. *)
  let x_off j = if c.coalesce then j * block_x else j in
  let xs_expr j = v "x0" +: i (x_off j) in
  let out_index j = (v "row" *: Param "npx") +: (v "x0" +: i (x_off j)) in
  {
    kname = "cp_" ^ String.map (function '/' -> '_' | ch -> ch) (describe c);
    scalar_params = [ ("npx", S32); ("scale", F32); ("z0", F32) ];
    array_params = [ { aname = "atoms"; aspace = Const }; { aname = "V"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Let ("row", S32, (bid_y *: i c.block_y) +: tid_y);
        Let ("xbase", S32, bid_x *: i (block_x * t));
        Let
          ( "x0",
            S32,
            if c.coalesce then v "xbase" +: tid_x else v "xbase" +: (tid_x *: i t) );
        Let ("py", F32, Un (ToF, v "row") *: Param "scale");
      ]
      @ List.concat
          (List.init t (fun j ->
               [ Let (Printf.sprintf "px%d" j, F32, Un (ToF, xs_expr j) *: Param "scale") ]))
      @ List.map (fun s -> Mut (s, F32, f 0.0)) sums
      @ [
          for_ "j" (i 0) (i natoms)
            ([
               Let ("ax", F32, Ld ("atoms", v "j" *: i 4));
               Let ("ay", F32, Ld ("atoms", (v "j" *: i 4) +: i 1));
               Let ("az", F32, Ld ("atoms", (v "j" *: i 4) +: i 2));
               Let ("aq", F32, Ld ("atoms", (v "j" *: i 4) +: i 3));
               Let ("dy", F32, v "py" -: v "ay");
               Let ("dz", F32, Param "z0" -: v "az");
               Let ("dyz2", F32, (v "dy" *: v "dy") +: (v "dz" *: v "dz"));
             ]
            @ List.concat
                (List.init t (fun j ->
                     let dx = Printf.sprintf "dx%d" j in
                     let r2 = Printf.sprintf "r2_%d" j in
                     [
                       Let (dx, F32, v (Printf.sprintf "px%d" j) -: v "ax");
                       Let (r2, F32, (v dx *: v dx) +: v "dyz2");
                       Assign
                         ( Printf.sprintf "pot%d" j,
                           v (Printf.sprintf "pot%d" j) +: (v "aq" *: Un (Rsqrt, v r2)) );
                     ])));
        ]
      @ List.concat
          (List.init t (fun j ->
               [ Store ("V", out_index j, v (Printf.sprintf "pot%d" j)) ]));
  }

(* ------------------------------------------------------------------ *)
(* Host-side problem                                                   *)
(* ------------------------------------------------------------------ *)

type problem = {
  shape : shape;
  scale : float;
  z0 : float;
  dev : Gpu.Device.t;
  atoms : Gpu.Device.buffer;
  out : Gpu.Device.buffer;
  hatoms : float array;
}

let setup ({ npx; npy; natoms; _ } as shape : shape) : problem =
  let dev = Gpu.Device.create ~global_words:(2 * npx * npy) () in
  let atoms_buf = Gpu.Device.alloc_const dev (4 * natoms) in
  let out = Gpu.Device.alloc dev (npx * npy) in
  let scale = Util.Float32.round 0.1 in
  let hatoms = Workload.atoms ~seed:13 ~n:natoms ~extent:(float_of_int npx *. scale) () in
  Gpu.Device.to_device dev atoms_buf hatoms;
  { shape; scale; z0 = Util.Float32.round 0.5; dev; atoms = atoms_buf; out; hatoms }

let launch_shape (p : problem) (c : config) : (int * int) * (int * int) =
  ((p.shape.npx / (block_x * c.tiling), p.shape.npy / c.block_y), (block_x, c.block_y))

let args_of (p : problem) : (string * Gpu.Sim.arg) list =
  [
    ("npx", Gpu.Sim.I p.shape.npx);
    ("scale", Gpu.Sim.F p.scale);
    ("z0", Gpu.Sim.F p.z0);
    ("atoms", Gpu.Sim.Buf p.atoms);
    ("V", Gpu.Sim.Buf p.out);
  ]

include App.Make (struct
  type nonrec config = config
  type nonrec shape = shape
  type nonrec problem = problem

  let name = "cp"
  let display = "CP"
  let title = "coulombic potential over a grid slice (Figure 5)"
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

(* Single-thread CPU reference: the same math with sqrt+divide (the SFU
   rsqrt shortcut is a GPU feature). *)
let cpu_reference (p : problem) : float array =
  let { npx; npy; natoms; _ } = p.shape in
  let out = Array.make (npx * npy) 0.0 in
  for row = 0 to npy - 1 do
    for x = 0 to npx - 1 do
      let py = Util.Float32.mul (Util.Float32.of_int row) p.scale in
      let px = Util.Float32.mul (Util.Float32.of_int x) p.scale in
      let s = ref 0.0 in
      for j = 0 to natoms - 1 do
        let ax = p.hatoms.(4 * j) in
        let ay = p.hatoms.((4 * j) + 1) in
        let az = p.hatoms.((4 * j) + 2) in
        let aq = p.hatoms.((4 * j) + 3) in
        let dx = Util.Float32.sub px ax in
        let dy = Util.Float32.sub py ay in
        let dz = Util.Float32.sub p.z0 az in
        let r2 =
          Util.Float32.add
            (Util.Float32.mul dx dx)
            (Util.Float32.add (Util.Float32.mul dy dy) (Util.Float32.mul dz dz))
        in
        s := Util.Float32.add !s (Util.Float32.mul aq (Util.Float32.rsqrt r2))
      done;
      out.((row * npx) + x) <- !s
    done
  done;
  out

(* Functional validation of one configuration at [shape] against the
   reference. *)
let validate (shape : shape) (cfg : config) : bool =
  let p = run_functional shape cfg in
  Array.for_all2
    (Util.Float32.close ~rtol:1e-3 ~atol:1e-3)
    (Gpu.Device.of_device p.dev p.out)
    (cpu_reference p)

(* Pairwise interactions for Table 3 accounting. *)
let interactions ({ npx; npy; natoms; _ } : shape) = float_of_int (npx * npy * natoms)
