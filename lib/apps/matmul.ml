(* Dense matrix multiplication — the paper's running example
   (Figure 2 kernels, Figure 3 performance, Figure 6(a), Table 4).

   Configuration axes (Table 4 row 1: "tile/block size, rectangular
   tile dimension, unroll factor, prefetching, register spilling"):

   - [tile]:     8 or 16 — the square output tile computed by a block
                 (block = tile x tile threads, Figure 2(a));
   - [rect]:     1, 2 or 4 — rectangular thread-level tiling: each
                 thread computes [rect] output elements, consuming
                 [rect] B-tiles per A-tile (Figure 2(b));
   - [unroll]:   1, 2, 4 or 0 (= complete) on the inner k-loop
                 (Figure 2(c));
   - [prefetch]: software-pipeline the tile loop's global loads
                 (Figure 2(d));
   - [spill]:    proactively spill one accumulator to local memory.

   2*3*4*2*2 = 96 raw points; configurations whose register demand
   leaves no room for a single block are invalid executables, exactly
   as in the paper's Figure 3 (prefetch at the highest register
   pressure point). *)

open Kir.Ast

type config = { tile : int; rect : int; unroll : int; prefetch : bool; spill : bool }

let space : config Tuner.Space.t =
  let open Tuner.Space in
  let+ tile = axis ~name:"tile" ~show:(fun t -> Printf.sprintf "%dx%d" t t) [ 8; 16 ]
  and+ rect = axis ~name:"rect" ~show:(fun r -> Printf.sprintf "1x%d" r) [ 1; 2; 4 ]
  and+ unroll =
    axis ~name:"unroll"
      ~show:(fun u -> if u = 0 then "complete" else string_of_int u)
      [ 1; 2; 4; 0 ]
  and+ prefetch = bools ~name:"prefetch" [ false; true ]
  and+ spill = bools ~name:"spill" [ false; true ] in
  { tile; rect; unroll; prefetch; spill }

let describe (c : config) =
  Printf.sprintf "%dx%d/1x%d/u%s%s%s" c.tile c.tile c.rect
    (if c.unroll = 0 then "C" else string_of_int c.unroll)
    (if c.prefetch then "/pf" else "")
    (if c.spill then "/sp" else "")

(* The optimization configuration as a pass schedule: unroll the inner
   k-loop, then software-pipeline the tile loop's loads, then spill the
   first accumulator — the order the paper applies them in. *)
let schedule (c : config) : Tuner.Pipeline.schedule =
  let open Tuner.Pipeline in
  {
    kir_passes =
      (if c.unroll <> 1 then
         [
           kir_pass
             (Printf.sprintf "unroll(k,%s)"
                (if c.unroll = 0 then "complete" else string_of_int c.unroll))
             (Kir.Unroll.apply ~select:(Kir.Unroll.Named "k") ~factor:c.unroll);
         ]
       else [])
      @ (if c.prefetch then [ kir_pass "prefetch" (fun k -> fst (Kir.Prefetch.apply k)) ]
         else [])
      @ (if c.spill then [ kir_pass "spill(sum0)" (Kir.Spill.apply ~vars:[ "sum0" ]) ] else []);
    ptx_passes = default_ptx_passes;
  }

(* ------------------------------------------------------------------ *)
(* Problem shapes                                                      *)
(* ------------------------------------------------------------------ *)

(* n x n matrices; [max_blocks] bounds the timing run. *)
type shape = { n : int; max_blocks : int }

let paper = { n = 512; max_blocks = 12 }
let bench = { n = 256; max_blocks = 8 }
let reduced = { n = 128; max_blocks = 8 }
let smoke = { n = 64; max_blocks = 2 }

(* The baseline KIR kernel for a (tile, rect) configuration: block
   (tile x tile); each thread accumulates [rect] outputs whose columns
   are [col + r*tile].  Shared tiles: As[tile][tile], Bs[tile][tile*rect]. *)
let kernel ({ n; _ } : shape) (c : config) : kernel =
  let t = c.tile and r = c.rect in
  let sums = List.init r (fun j -> Printf.sprintf "sum%d" j) in
  let base =
    {
      kname = "mm_" ^ String.map (function '/' -> '_' | ch -> ch) (describe c);
      scalar_params = [];
      array_params =
        [
          { aname = "A"; aspace = Global };
          { aname = "B"; aspace = Global };
          { aname = "C"; aspace = Global };
        ];
      shared_decls = [ ("As", t * t); ("Bs", t * t * r) ];
      local_decls = [];
      body =
        [ Let ("row", S32, (bid_y *: i t) +: tid_y); Let ("col0", S32, (bid_x *: i (t * r)) +: tid_x) ]
        @ List.map (fun s -> Mut (s, F32, f 0.0)) sums
        @ [
            for_ "tb" (i 0) (i (n / t))
              ((* cooperative loads: one A element, [rect] B elements *)
               Let ("a", F32, Ld ("A", (v "row" *: i n) +: ((v "tb" *: i t) +: tid_x))
               )
               :: List.concat
                    (List.init r (fun j ->
                         [
                           Let
                             ( Printf.sprintf "b%d" j,
                               F32,
                               Ld
                                 ( "B",
                                   ((v "tb" *: i t) +: tid_y) *: i n
                                   +: (v "col0" +: i (j * t)) ) );
                         ]))
               @ [ Store ("As", (tid_y *: i t) +: tid_x, v "a") ]
               @ List.init r (fun j ->
                     Store
                       ( "Bs",
                         (tid_y *: i (t * r)) +: (tid_x +: i (j * t)),
                         v (Printf.sprintf "b%d" j) ))
               @ [
                   Sync;
                   for_ "k" (i 0) (i t)
                     (Let ("av", F32, Ld ("As", (tid_y *: i t) +: v "k"))
                     :: List.map
                          (fun j ->
                            Assign
                              ( Printf.sprintf "sum%d" j,
                                v (Printf.sprintf "sum%d" j)
                                +: (v "av"
                                   *: Ld ("Bs", (v "k" *: i (t * r)) +: (tid_x +: i (j * t)))) ))
                          (List.init r Fun.id));
                   Sync;
                 ]);
          ]
        @ List.init r (fun j ->
              Store
                ( "C",
                  (v "row" *: i n) +: (v "col0" +: i (j * t)),
                  v (Printf.sprintf "sum%d" j) ));
    }
  in
  base

(* ------------------------------------------------------------------ *)
(* Host-side problem                                                   *)
(* ------------------------------------------------------------------ *)

type problem = {
  shape : shape;
  dev : Gpu.Device.t;
  a : Gpu.Device.buffer;
  b : Gpu.Device.buffer;
  c : Gpu.Device.buffer;
  ha : float array;
  hb : float array;
}

let setup ({ n; _ } as shape : shape) : problem =
  let dev = Gpu.Device.create ~global_words:(4 * n * n) () in
  let a = Gpu.Device.alloc dev (n * n) in
  let b = Gpu.Device.alloc dev (n * n) in
  let c = Gpu.Device.alloc dev (n * n) in
  let ha = Workload.matrix ~seed:11 n in
  let hb = Workload.matrix ~seed:12 n in
  Gpu.Device.to_device dev a ha;
  Gpu.Device.to_device dev b hb;
  { shape; dev; a; b; c; ha; hb }

let launch_shape (p : problem) (cfg : config) : (int * int) * (int * int) =
  let n = p.shape.n in
  ((n / (cfg.tile * cfg.rect), n / cfg.tile), (cfg.tile, cfg.tile))

let args_of (p : problem) : (string * Gpu.Sim.arg) list =
  [ ("A", Gpu.Sim.Buf p.a); ("B", Gpu.Sim.Buf p.b); ("C", Gpu.Sim.Buf p.c) ]

include App.Make (struct
  type nonrec config = config
  type nonrec shape = shape
  type nonrec problem = problem

  let name = "matmul"
  let display = "Matrix Multiplication"
  let title = "dense matrix multiplication (paper's running example, Figure 3)"
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

(* Single-thread CPU reference (binary32 semantics, same accumulation
   order as the kernel: k-major). *)
let cpu_reference ~n (ha : float array) (hb : float array) : float array =
  let out = Array.make (n * n) 0.0 in
  for row = 0 to n - 1 do
    for col = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := Util.Float32.mad ha.((row * n) + k) hb.((k * n) + col) !s
      done;
      out.((row * n) + col) <- !s
    done
  done;
  out

(* Functional validation of one configuration at [shape] against the
   reference. *)
let validate (shape : shape) (cfg : config) : bool =
  let p = run_functional shape cfg in
  Array.for_all2 Util.Float32.close
    (Gpu.Device.of_device p.dev p.c)
    (cpu_reference ~n:shape.n p.ha p.hb)
