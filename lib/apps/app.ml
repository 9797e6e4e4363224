(* One application, described once.

   The paper characterizes each configuration from its compiled kernel
   and its launch geometry (Eq. 1's Threads, Eq. 2's W_TB), and this
   repository runs each of Table 4's spaces at four problem shapes.  An
   app module states only what belongs to it ([S]): its space, the
   kernel and launch geometry a configuration gets at a shape, how a
   shape's problem is staged, and the shapes themselves.  [Make] derives
   everything else — compilation, the tuner's candidates, the analysis
   workbench, functional runs and the registry entry — so every consumer
   agrees on kernels, launches and problem data by construction. *)

(* The registry's view of an application: its config type erased
   behind closures, so the CLI and the bench harness enumerate the apps
   generically.  [Registry] re-exports the type by including this
   module. *)
module Entry = struct
  type entry = {
    name : string;  (* CLI name, e.g. "matmul" *)
    display : string;  (* report heading, e.g. "Matrix Multiplication" *)
    title : string;  (* one-line description *)
    axes : Tuner.Space.axis_info list;
    constraints : string list;
    cardinality : int;  (* after validity constraints; Table 4 *)
    configs : string list Lazy.t;  (* all descriptions, enumeration order *)
    candidates :
      ?arch:Gpu.Arch.t -> ?extra_ptx:Tuner.Pipeline.ptx_pass list -> unit -> Tuner.Candidate.t list;
        (* paper shape; [extra_ptx] appends passes (e.g. the verified
           peephole leg) to every candidate's PTX leg *)
    quick_candidates :
      ?arch:Gpu.Arch.t -> ?extra_ptx:Tuner.Pipeline.ptx_pass list -> unit -> Tuner.Candidate.t list;
        (* smoke shape *)
    reduced_candidates :
      ?arch:Gpu.Arch.t -> ?extra_ptx:Tuner.Pipeline.ptx_pass list -> unit -> Tuner.Candidate.t list;
        (* reduced shape, raced by the predictor *)
    bench_candidates :
      ?arch:Gpu.Arch.t -> ?extra_ptx:Tuner.Pipeline.ptx_pass list -> unit -> Tuner.Candidate.t list;
        (* bench shape *)
    compile :
      ?hook:(Tuner.Pipeline.stat -> unit) -> string -> (Tuner.Pipeline.compiled, string) result;
        (* compile one configuration at the paper shape, selected by its
           description *)
    workbench : ?arch:Gpu.Arch.t -> ?config:string -> unit -> (Workbench.t, string) result;
        (* reduced shape + compiled default (or named) config, for the
           static analyzer and its cross-validation harness *)
  }
end

module type S = sig
  type config
  type shape  (* problem dimensions plus the timing run's [max_blocks] *)
  type problem  (* a shape's data, staged on a device *)

  val name : string
  val display : string
  val title : string
  val space : config Tuner.Space.t
  val describe : config -> string

  (* The configuration's KIR passes. *)
  val schedule : config -> Tuner.Pipeline.schedule

  (* The baseline kernel a configuration compiles from at [shape]. *)
  val kernel : shape -> config -> Kir.Ast.kernel

  val setup : shape -> problem
  val device : problem -> Gpu.Device.t

  (* ((grid x, grid y), (block x, block y)), independent of the compiled
     kernel: the static analyzer consumes it before any PTX exists, and
     a candidate's thread counts are read from it. *)
  val launch_shape : problem -> config -> (int * int) * (int * int)

  val args_of : problem -> (string * Gpu.Sim.arg) list
  val max_blocks : shape -> int

  (* The paper's problem, the bench harness's (the exhaustive sweep
     stays tractable on a host CPU), and the smoke shape: the smallest
     problem the whole space sweeps at in well under a second, for the
     test suite and `--quick` runs, which tolerates a shuffled ranking. *)
  val paper : shape
  val bench : shape
  val smoke : shape

  (* The reduced shape, shared by the lint workbenches and the
     predictor's successive-halving race ([Tuner.Prune]).  The race's
     store entries are keyed by the reduced space digest, and the
     analyzer's cross-validation replays the same launch.

     It is chosen for ordering fidelity, not just speed: the race only
     works if the reduced shape ranks candidates the way the full
     problem does.  That forces one rule — shrink the *sequential*
     dimension each thread iterates over (matrix extent, atoms per
     point, search positions, samples per voxel) and keep the *parallel*
     grid and the per-SM block cap at full scale.  Shrinking the grid
     instead leaves wide-work-per-thread configurations under-populated
     on the machine, and their relative order inverts: at 3360 voxels
     MRI's true optimum (192 threads, 7 voxels per thread) launches too
     few blocks to cover the SMs and ranks 160th of 175; at the full
     107520 voxels with only 16 samples it ranks 1st. *)
  val reduced : shape
end

module Make (A : S) = struct
  open A

  let launch_of (p : problem) (cfg : config) (k : Ptx.Prog.t) : Gpu.Sim.launch =
    let grid, block = launch_shape p cfg in
    { Gpu.Sim.kernel = k; grid; block; args = args_of p }

  let analysis_input_of ?(arch = Gpu.Arch.g80) (p : problem) (cfg : config) :
      Tuner.Pipeline.analysis_input =
    let grid, block = launch_shape p cfg in
    { Tuner.Pipeline.an_grid = grid; an_block = block; an_args = args_of p; an_arch = arch }

  (* The one compile entry point: [schedule cfg] applied to the kernel
     for [shape] through the verified pipeline. *)
  let compile ?hook ?analyze ?extra_ptx (shape : shape) (cfg : config) : Tuner.Pipeline.compiled =
    Tuner.Pipeline.compile ?hook ?analyze ?extra_ptx (schedule cfg) (kernel shape cfg)

  (* Every point of the space at [shape], compiled, characterized and
     given a simulated measurement thunk, in the space's enumeration
     order.  [?arch] sets occupancy, validity and the machine the thunk
     launches on. *)
  let candidates ?(arch = Gpu.Arch.g80) ?extra_ptx (shape : shape) : Tuner.Candidate.t list =
    let p = setup shape and max_blocks = max_blocks shape in
    List.map
      (fun (cfg, params) ->
        let c = compile ?extra_ptx shape cfg in
        let (gx, gy), (bx, by) = launch_shape p cfg in
        (* The thunk captures the PTX alone: reading [c.ptx] inside it
           would keep every candidate's KIR source alive. *)
        let ptx = c.ptx in
        Tuner.Candidate.make ~arch ~desc:(describe cfg) ~params ~kernel:ptx ~resource:c.resource
          ~profile:c.profile ~threads_per_block:(bx * by)
          ~threads_total:(gx * gy * bx * by)
          ~run:(fun () ->
            (* A timing launch writes nothing of the device it is given,
               so thunks on concurrent domains (Search ~jobs) share the
               staged one. *)
            (Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks }) ~arch (device p)
               (launch_of p cfg ptx))
              .time_s)
          ())
      (Tuner.Space.elements space)

  (* Stage [shape]'s problem and run [cfg] on it functionally, compiled
     through the same pipeline as [candidates]; the caller compares the
     device's outputs with its CPU reference. *)
  let run_functional (shape : shape) (cfg : config) : problem =
    let p = setup shape in
    let ptx = (compile shape cfg).ptx in
    ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional (device p) (launch_of p cfg ptx));
    p

  (* [shape]'s problem and the default (or named) configuration compiled
     for it through the analyze stage. *)
  let workbench ?arch ?config (shape : shape) : (Workbench.t, string) result =
    let found =
      match config with
      | None -> Ok (List.hd (Tuner.Space.configs space))
      | Some d ->
        Option.to_result ~none:(Printf.sprintf "no configuration %S" d)
          (Tuner.Space.find ~describe space d)
    in
    Result.map
      (fun cfg ->
        let p = setup shape in
        let ai = analysis_input_of ?arch p cfg in
        let c = compile ~analyze:ai shape cfg in
        {
          Workbench.wb_app = name;
          wb_config = describe cfg;
          wb_dev = device p;
          wb_kernel = c.source;
          wb_grid = ai.an_grid;
          wb_block = ai.an_block;
          wb_args = ai.an_args;
          wb_arch = ai.an_arch;
          wb_compiled = c;
        })
      found

  let entry : Entry.entry =
    let at shape ?arch ?extra_ptx () = candidates ?arch ?extra_ptx shape in
    {
      name;
      display;
      title;
      axes = Tuner.Space.axes space;
      constraints = Tuner.Space.constraints space;
      cardinality = Tuner.Space.cardinality space;
      configs = lazy (List.map describe (Tuner.Space.configs space));
      candidates = at paper;
      quick_candidates = at smoke;
      reduced_candidates = at reduced;
      bench_candidates = at bench;
      compile =
        (fun ?hook desc ->
          match Tuner.Space.find ~describe space desc with
          | Some cfg -> Ok (compile ?hook paper cfg)
          | None -> Error (Printf.sprintf "%s: no configuration %S" name desc));
      workbench = (fun ?arch ?config () -> workbench ?arch ?config reduced);
    }
end
