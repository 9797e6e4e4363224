(* The unified compile-and-characterize pipeline.

   Every kernel in the repository — app candidates, single-config
   validation runs, minicuda files from the CLI — flows through
   [compile]: the configuration's named KIR passes, lowering, the fixed
   PTX leg ([Ptx.Opt.fixpoint], then any extra passes the caller
   appends), then the static characterization (resources, execution
   profile) the paper's metrics consume.  One entry point means the
   kernel the tuner *measures* is always the kernel it
   *characterized*.

   Between stages the pipeline always verifies its own output:
   [Kir.Typecheck.check] after every KIR pass, [Ptx.Verify.check] after
   lowering, after the optimization loop and after every extra PTX
   pass.  A pass that corrupts the program raises [Fault.Pass_failed]
   naming the stage, instead of the corruption surfacing later as a
   wrong simulation result.

   Per-stage statistics (static size before/after, registers, wall
   time) are emitted through an optional [hook]; with no hook nothing
   is computed, so the bulk candidate builds pay only for verification.
   `gpuopt inspect --trace` and the bench harness's `trace` exhibit
   print these. *)

type layer = Kir | Lower | Ptx | Analyze | Characterize

let layer_name = function
  | Kir -> "kir"
  | Lower -> "lower"
  | Ptx -> "ptx"
  | Analyze -> "analyze"
  | Characterize -> "characterize"

type stat = {
  stage : string;  (* pass name; optimization rounds are suffixed "#n" *)
  layer : layer;
  size_before : int;  (* static size: KIR statements or PTX instructions *)
  size_after : int;
  regs : int;  (* allocated registers/thread after this stage (0 for KIR) *)
  elapsed_s : float;
  notes : string list;  (* per-stage diagnostics (the analyze stage's lints) *)
}

type kir_pass = { kp_name : string; kp_fn : Kir.Ast.kernel -> Kir.Ast.kernel }

type ptx_pass = { pp_name : string; pp_fn : Ptx.Prog.t -> Ptx.Prog.t }

let kir_pass name fn = { kp_name = name; kp_fn = fn }
let ptx_pass name fn = { pp_name = name; pp_fn = fn }

(* A configuration's schedule: its KIR passes, in order.  The PTX leg is
   the same for every kernel. *)
type schedule = kir_pass list

(* The verified-peephole leg: apply a superoptimizer rule database as an
   extra PTX pass, so it runs under the same per-stage
   [Ptx.Verify.check] as every hand-written pass. *)
let peephole (rules : Ptx.Patterns.rule list) : ptx_pass =
  ptx_pass "peephole" (Ptx.Peephole.run rules)

type compiled = {
  source : Kir.Ast.kernel;  (* the KIR actually lowered, after KIR passes *)
  ptx : Ptx.Prog.t;  (* the optimized kernel the simulator runs *)
  resource : Ptx.Resource.t;
  profile : Ptx.Count.profile;
  lint : Analysis.Lint.report option;  (* filled by the analyze stage *)
}

(* Launch geometry for the static memory-access analyzer: the affine
   analysis is per-launch (grid, block, argument bases), not
   per-kernel, so callers that want the analyze stage must say what
   launch they are compiling for. *)
type analysis_input = {
  an_grid : int * int;
  an_block : int * int;
  an_args : (string * Gpu.Sim.arg) list;
  an_arch : Gpu.Arch.t;  (* machine whose geometry the predictors use *)
}

(* Static size of a KIR body, for the trace. *)
let rec stmt_count (ss : Kir.Ast.stmt list) : int =
  List.fold_left
    (fun acc (s : Kir.Ast.stmt) ->
      acc
      +
      match s with
      | Kir.Ast.For l -> 1 + stmt_count l.body
      | Kir.Ast.If (_, a, b) -> 1 + stmt_count a + stmt_count b
      | _ -> 1)
    0 ss

let kir_size (k : Kir.Ast.kernel) = stmt_count k.body

(* [extra_ptx] runs after the optimization loop, each pass verified
   on its own: the --rules peephole leg, or a test's broken pass. *)
let compile ?hook ?analyze ?(extra_ptx = []) (kir_passes : schedule) (kernel : Kir.Ast.kernel) :
    compiled =
  let emit stat = match hook with Some f -> f stat | None -> () in
  let timed f x =
    let t0 = Unix.gettimeofday () in
    let y = f x in
    (y, Unix.gettimeofday () -. t0)
  in
  (* Registers are only computed when someone is watching the trace:
     allocation costs a liveness fixpoint per stage. *)
  let regs_of p = if Option.is_none hook then 0 else (Ptx.Regalloc.allocate p).reg_count in
  let typecheck stage k =
    try Kir.Typecheck.check k
    with Kir.Typecheck.Type_error msg -> raise (Fault.Pass_failed { stage; reason = msg })
  in
  let verify_ptx stage p =
    match Ptx.Verify.check p with
    | Ok () -> ()
    | Error vs -> raise (Fault.Pass_failed { stage; reason = Ptx.Verify.report vs })
  in
  typecheck "input" kernel;
  let kir =
    List.fold_left
      (fun k { kp_name; kp_fn } ->
        let before = kir_size k in
        let k', dt = timed kp_fn k in
        typecheck kp_name k';
        emit
          {
            stage = kp_name;
            layer = Kir;
            size_before = before;
            size_after = kir_size k';
            regs = 0;
            elapsed_s = dt;
            notes = [];
          };
        k')
      kernel kir_passes
  in
  let ksize = kir_size kir in
  let ptx0, dt = timed Kir.Lower.lower kir in
  verify_ptx "lower" ptx0;
  emit
    {
      stage = "lower";
      layer = Lower;
      size_before = ksize;
      size_after = Ptx.Prog.static_size ptx0;
      regs = regs_of ptx0;
      elapsed_s = dt;
      notes = [];
    };
  let run_ptx name fn p =
    let before = Ptx.Prog.static_size p in
    let p', dt = timed fn p in
    emit
      {
        stage = name;
        layer = Ptx;
        size_before = before;
        size_after = Ptx.Prog.static_size p';
        regs = regs_of p';
        elapsed_s = dt;
        notes = [];
      };
    p'
  in
  (* [Ptx.Opt.run]'s loop itself, each pass traced as "name#round". *)
  let opt =
    Ptx.Opt.fixpoint (fun ~round name fn p -> run_ptx (Printf.sprintf "%s#%d" name round) fn p) ptx0
  in
  verify_ptx "opt" opt;
  let ptx =
    List.fold_left
      (fun p { pp_name; pp_fn } ->
        let p' = run_ptx pp_name pp_fn p in
        verify_ptx pp_name p';
        p')
      opt extra_ptx
  in
  (* Static memory-access analysis of the (post-KIR-pass) source the
     lowering consumed: affine per-site transaction / bank-conflict
     prediction plus the shared-memory race check, reported through the
     hook as the stage's notes. *)
  let lint =
    match analyze with
    | None -> None
    | Some a ->
      let t0 = Unix.gettimeofday () in
      let r =
        Analysis.Lint.analyze
          {
            Analysis.Lint.li_name = kernel.Kir.Ast.kname;
            li_kernel = kir;
            li_grid = a.an_grid;
            li_block = a.an_block;
            li_args = a.an_args;
            li_arch = a.an_arch;
          }
      in
      let nsites = List.length r.Analysis.Lint.r_sites in
      emit
        {
          stage = "analyze";
          layer = Analyze;
          size_before = nsites;
          size_after = nsites;
          regs = 0;
          elapsed_s = Unix.gettimeofday () -. t0;
          notes = r.Analysis.Lint.r_warnings;
        };
      Some r
  in
  let t0 = Unix.gettimeofday () in
  let resource = Ptx.Resource.of_kernel ptx in
  let profile = Ptx.Count.profile_of ptx in
  emit
    {
      stage = "characterize";
      layer = Characterize;
      size_before = Ptx.Prog.static_size ptx;
      size_after = Ptx.Prog.static_size ptx;
      regs = resource.regs_per_thread;
      elapsed_s = Unix.gettimeofday () -. t0;
      notes = [];
    };
  { source = kir; ptx; resource; profile; lint }

(* Lower + standard PTX optimization, no KIR passes: the entry point
   for already-configured kernels (minicuda files, examples). *)
let lower_opt ?hook (k : Kir.Ast.kernel) : compiled = compile ?hook [] k

(* Render a hook's collected stats as a report table; stage notes (the
   analyze stage's lint warnings) follow as indented lines. *)
let trace_table (stats : stat list) : string =
  Report.table
    [ "Stage"; "Layer"; "Size"; "Regs"; "Time" ]
    (List.map
       (fun s ->
         [
           s.stage;
           layer_name s.layer;
           (if s.size_before = s.size_after then string_of_int s.size_after
            else Printf.sprintf "%d -> %d" s.size_before s.size_after);
           (match s.layer with Kir | Analyze -> "-" | _ -> string_of_int s.regs);
           Printf.sprintf "%.2f ms" (s.elapsed_s *. 1000.0);
         ])
       stats)
  ^ String.concat ""
      (List.concat_map
         (fun s -> List.map (fun n -> Printf.sprintf "  %s: %s\n" s.stage n) s.notes)
         stats)
