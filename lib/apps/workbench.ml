(* Analysis workbenches: one application's staged problem at some
   shape, a chosen configuration compiled through the pipeline's analyze
   stage, and the launch geometry the analyzer reasoned about.
   [App.Make]'s [workbench] builds them; `gpuopt lint`, the bench
   harness's lint exhibit and the cross-validation tests all start from
   there, so they agree on problem sizes by construction.

   The registry's workbenches use each app's reduced shape, shared with
   the predictor's race; the sweep-heavy test batteries use the smoke
   shape, because cross-validation replays every block of the grid in
   the functional simulator and the shape is what bounds its cost. *)

type t = {
  wb_app : string;  (* registry name *)
  wb_config : string;  (* configuration description *)
  wb_dev : Gpu.Device.t;  (* device holding the staged buffers *)
  wb_kernel : Kir.Ast.kernel;  (* post-KIR-pass source, as analyzed *)
  wb_grid : int * int;
  wb_block : int * int;
  wb_args : (string * Gpu.Sim.arg) list;
  wb_arch : Gpu.Arch.t;  (* machine the analysis ran against *)
  wb_compiled : Tuner.Pipeline.compiled;  (* lint = Some _ *)
}

let name (wb : t) = Printf.sprintf "%s %s" wb.wb_app wb.wb_config

(* The lint report the pipeline's analyze stage produced; every
   workbench is compiled with [~analyze]. *)
let lint (wb : t) : Analysis.Lint.report =
  { (Option.get wb.wb_compiled.Tuner.Pipeline.lint) with Analysis.Lint.r_name = name wb }

(* Re-analyze a mutated variant of the workbench kernel (dropped
   barrier, transposed store, ...) under the same launch. *)
let lint_mutant (wb : t) (mutate : Kir.Ast.kernel -> Kir.Ast.kernel) : Analysis.Lint.report =
  Analysis.Lint.analyze
    {
      Analysis.Lint.li_name = name wb ^ " (mutant)";
      li_kernel = mutate wb.wb_kernel;
      li_grid = wb.wb_grid;
      li_block = wb.wb_block;
      li_args = wb.wb_args;
      li_arch = wb.wb_arch;
    }

(* Diff [report]'s static predictions — [lint wb]'s, or a mutant's from
   [lint_mutant wb] — against the simulator's per-site counters on the
   workbench's launch.  The diff keeps the report's name, so a mutant's
   says so. *)
let crossval (wb : t) (report : Analysis.Lint.report) : Analysis.Crossval.t =
  Analysis.Crossval.run ~dev:wb.wb_dev ~arch:wb.wb_arch ~args:wb.wb_args report
