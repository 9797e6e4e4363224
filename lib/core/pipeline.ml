(* The unified compile-and-characterize pipeline.

   Every kernel in the repository — app candidates, single-config
   validation runs, minicuda files from the CLI — flows through
   [compile]: named KIR passes, lowering, named PTX passes, then the
   static characterization (resources, execution profile) the paper's
   metrics consume.  One entry point means the kernel the tuner
   *measures* is always the kernel it *characterized*.

   Between stages the pipeline always verifies its own output:
   [Kir.Typecheck.check] after every KIR pass, [Ptx.Verify.check] after
   lowering and after every PTX pass.  A pass that corrupts the program
   raises [Pass_failed] naming the stage, instead of the corruption
   surfacing later as a wrong simulation result.

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
  stage : string;  (* pass name; fixpoint rounds are suffixed "#n" *)
  layer : layer;
  size_before : int;  (* static size: KIR statements or PTX instructions *)
  size_after : int;
  regs : int;  (* allocated registers/thread after this stage (0 for KIR) *)
  elapsed_s : float;
  notes : string list;  (* per-stage diagnostics (the analyze stage's lints) *)
}

type kir_pass = { kp_name : string; kp_fn : Kir.Ast.kernel -> Kir.Ast.kernel }

type ptx_pass =
  | Ptx_pass of { pp_name : string; pp_fn : Ptx.Prog.t -> Ptx.Prog.t }
  | Fixpoint of { fp_name : string; fp_passes : (string * (Ptx.Prog.t -> Ptx.Prog.t)) list }

let kir_pass name fn = { kp_name = name; kp_fn = fn }
let ptx_pass name fn = Ptx_pass { pp_name = name; pp_fn = fn }
let fixpoint name passes = Fixpoint { fp_name = name; fp_passes = passes }

type schedule = { kir_passes : kir_pass list; ptx_passes : ptx_pass list }

(* The standard PTX leg: copy-prop → cse → dce iterated to a fixed
   point, bounded — the exact composition (and termination test) of
   [Ptx.Opt.run], so scheduling the passes individually produces
   byte-identical kernels. *)
let default_ptx_passes =
  [
    fixpoint "opt"
      [ ("copy-prop", Ptx.Opt.propagate); ("cse", Ptx.Opt.cse); ("dce", Ptx.Opt.dce) ];
  ]

let default_schedule = { kir_passes = []; ptx_passes = default_ptx_passes }

(* The verified-peephole leg: apply a superoptimizer rule database as an
   ordinary named PTX pass, so it runs under the same per-stage
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

(* The historical name; the exception itself lives in [Fault] (with its
   printer) so the fault classifier can match on it without a
   dependency cycle through the report layer. *)
exception Pass_failed = Fault.Pass_failed

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

let compile ?hook ?analyze (sched : schedule) (kernel : Kir.Ast.kernel) : compiled =
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
    with Kir.Typecheck.Type_error msg -> raise (Pass_failed { stage; reason = msg })
  in
  let verify_ptx stage p =
    match Ptx.Verify.check p with
    | Ok () -> ()
    | Error vs -> raise (Pass_failed { stage; reason = Ptx.Verify.report vs })
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
      kernel sched.kir_passes
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
  let run_one layer name p fn =
    let before = Ptx.Prog.static_size p in
    let p', dt = timed fn p in
    emit
      {
        stage = name;
        layer;
        size_before = before;
        size_after = Ptx.Prog.static_size p';
        regs = regs_of p';
        elapsed_s = dt;
        notes = [];
      };
    p'
  in
  let apply_ptx p = function
    | Ptx_pass { pp_name; pp_fn } ->
      let p' = run_one Ptx pp_name p pp_fn in
      verify_ptx pp_name p';
      p'
    | Fixpoint { fp_name; fp_passes } ->
      (* Same termination rule as [Ptx.Opt.run]: stop when a whole round
         leaves the kernel unchanged, bounded by [Ptx.Opt.max_rounds]. *)
      let rec go p n round =
        if n = 0 then p
        else
          let p' =
            List.fold_left
              (fun p (name, fn) -> run_one Ptx (Printf.sprintf "%s#%d" name round) p fn)
              p fp_passes
          in
          if Ptx.Prog.equal p' p then p
          else go p' (n - 1) (round + 1)
      in
      let p' = go p Ptx.Opt.max_rounds 1 in
      verify_ptx fp_name p';
      p'
  in
  let ptx = List.fold_left apply_ptx ptx0 sched.ptx_passes in
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
let lower_opt ?hook (k : Kir.Ast.kernel) : compiled = compile ?hook default_schedule k

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
