(* Chaos-injection harness for the fault-tolerant tuner.

   The fault tolerance layer ([Fault], [Measure], [Search]) claims that
   a sweep survives misbehaving candidates: crashes are isolated,
   runaway kernels are cut off by the simulator watchdog, corrupt
   passes surface as verifier rejections, and the search still finds
   the optimum among the survivors.  This module *manufactures* those
   misbehaviors deterministically so the claim is testable: given a
   seed and a count, it picks victims from a candidate list and
   replaces their measurement thunks with realistic failures, leaving
   descs, parameters and static metrics untouched (so the Pareto
   geometry of the space is exactly the fault-free one).

   Three failure modes, cycled over the victims:

   - [Throw]:        the thunk raises [Injected] — a stand-in for any
                     bug escaping a measurement worker;
   - [Runaway]:      the thunk really runs the simulator on a kernel
                     whose loop bound was stretched to a billion
                     iterations ([Kir.Mutate.runaway_loop]); only the
                     watchdog budget ends it;
   - [Corrupt_pass]: the thunk compiles through a pass that appends an
                     assignment to an undeclared variable, which the
                     pipeline's per-stage typecheck rejects.

   [kill_after] manufactures the other misbehavior a long sweep must
   survive: being stopped partway.  `gpuopt chaos` drives both over a
   real application space and checks that every injected fault is
   reported, that the surviving search still selects the true optimum,
   and that a sweep stopped partway and resumed from its result store
   reproduces the uninterrupted result. *)

type kind = Throw | Runaway | Corrupt_pass

let kind_name = function
  | Throw -> "throw"
  | Runaway -> "runaway"
  | Corrupt_pass -> "corrupt-pass"

(* What [Throw] victims raise: deliberately not an exception the
   classifier knows, so it exercises the [Worker_crash] catch-all. *)
exception Injected of { desc : string }

let () =
  Printexc.register_printer (function
    | Injected { desc } -> Some (Printf.sprintf "Tuner.Chaos.Injected(%s)" desc)
    | _ -> None)

type injection = {
  inj_index : int;  (* position in the candidate list *)
  inj_desc : string;  (* the victim's config key *)
  inj_kind : kind;
}

(* ------------------------------------------------------------------ *)
(* The injected failure thunks                                         *)
(* ------------------------------------------------------------------ *)

(* A minimal self-contained kernel: accumulate in a register, store one
   word.  The loop variable is *not* used for addressing, so stretching
   the loop bound cannot cause out-of-bounds device accesses — the only
   way the stretched version ends is the watchdog. *)
let tiny_kernel : Kir.Ast.kernel =
  let open Kir.Ast in
  {
    kname = "chaos_tiny";
    scalar_params = [];
    array_params = [ { aname = "out"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Mut ("acc", F32, f 0.0);
        for_ "it" (i 0) (i 4) [ Assign ("acc", v "acc" +: f 1.0) ];
        Store ("out", i 0, v "acc");
      ];
  }

(* Genuinely run the simulator on a livelocked kernel under a small
   explicit budget: a real watchdog abort, end to end, without paying
   for the (generous) default budget.  Compiled per call — the kernel
   is a handful of statements, and per-call compilation keeps the thunk
   safe to run on any worker domain. *)
let runaway_time () : float =
  let stretched = Kir.Mutate.runaway_loop ~iters:1_000_000_000 tiny_kernel in
  let c = Pipeline.lower_opt stretched in
  let dev = Gpu.Device.create ~global_words:4 () in
  let out = Gpu.Device.alloc dev 1 in
  let launch =
    { Gpu.Sim.kernel = c.ptx; grid = (1, 1); block = (32, 1); args = [ ("out", Gpu.Sim.Buf out) ] }
  in
  (Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = 1 }) ~budget:100_000 dev launch).time_s

(* Compile through a pass that corrupts its kernel: the appended
   assignment targets a variable no scope declares, so the pipeline's
   post-pass typecheck rejects the stage ([Pipeline.Pass_failed], which
   classifies as [Verify_rejected]). *)
let corrupt_pass_time () : float =
  let corrupt (k : Kir.Ast.kernel) =
    { k with Kir.Ast.body = k.Kir.Ast.body @ [ Kir.Ast.Assign ("chaos_undefined", Kir.Ast.Flt 0.0) ] }
  in
  let sched =
    {
      Pipeline.kir_passes = [ Pipeline.kir_pass "chaos-corrupt" corrupt ];
      ptx_passes = Pipeline.default_ptx_passes;
    }
  in
  let (_ : Pipeline.compiled) = Pipeline.compile sched tiny_kernel in
  0.0

let faulty_run (k : kind) ~(desc : string) : unit -> float =
  match k with
  | Throw -> fun () -> raise (Injected { desc })
  | Runaway -> runaway_time
  | Corrupt_pass -> corrupt_pass_time

(* The fault each kind settles to, for checking reports: the tag a
   classified injection of this kind must carry. *)
let expected_tag = function
  | Throw -> "crash"
  | Runaway -> "watchdog"
  | Corrupt_pass -> "verify"

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)
(* ------------------------------------------------------------------ *)

(* Raised by [inject] when [requested] exceeds the [eligible]
   candidates it may pick as victims. *)
exception Too_many_faults of { requested : int; eligible : int }

(* Replace the measurement thunks of [count] distinct valid candidates
   (chosen by a seeded shuffle, so a given seed always picks the same
   victims) with failures, cycling through the three kinds.  Only the
   [run] thunk changes: desc, params, kernel and static profile are the
   victim's own, so metrics and the Pareto frontier are unaffected.
   Returns the modified list (input order) and the injections in list
   order.

   [?avoid] excludes descs from the victim pool.  Faults that miss the
   Pareto-selected subset provably leave the pruned search's selection
   unchanged (dominance only loses witnesses, and the frontier's
   extreme points fix the quantization grid), so `gpuopt chaos` passes
   the fault-free run's selected descs here to make its strict
   selection checks assertable; the QCheck properties inject anywhere
   and condition on the hit. *)
let inject ~(seed : int) ~(count : int) ?(avoid : string list = []) (cands : Candidate.t list) :
    Candidate.t list * injection list =
  if count < 0 then invalid_arg "Chaos.inject: count must be >= 0";
  let valid_idx =
    List.mapi
      (fun i (c : Candidate.t) -> (i, c.valid && not (List.mem c.desc avoid)))
      cands
    |> List.filter_map (fun (i, ok) -> if ok then Some i else None)
  in
  if count > List.length valid_idx then
    raise (Too_many_faults { requested = count; eligible = List.length valid_idx });
  let a = Array.of_list valid_idx in
  let rng = Util.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  let victims = List.sort compare (Array.to_list (Array.sub a 0 count)) in
  let kinds = [| Throw; Runaway; Corrupt_pass |] in
  let injections =
    List.mapi
      (fun rank idx ->
        let c = List.nth cands idx in
        { inj_index = idx; inj_desc = c.Candidate.desc; inj_kind = kinds.(rank mod 3) })
      victims
  in
  let by_index = List.map (fun inj -> (inj.inj_index, inj)) injections in
  let cands' =
    List.mapi
      (fun i (c : Candidate.t) ->
        match List.assoc_opt i by_index with
        | None -> c
        | Some inj -> { c with run = faulty_run inj.inj_kind ~desc:c.desc })
      cands
  in
  (cands', injections)

(* ------------------------------------------------------------------ *)
(* Kill-at-N                                                           *)
(* ------------------------------------------------------------------ *)

(* Wrap every [run] thunk of [cands] so that [cancel] fires once [k] of
   them have completed (a faulting thunk completes too: its fault is a
   settled outcome).  A sweep over the wrapped list stops at the next
   candidate boundary exactly as an expired deadline stops it, raising
   [Cancel.Cancelled] with the first [k] outcomes — plus any still in
   flight on other worker domains — settled in the engine and its
   store.  Re-running the unwrapped list against that store is the
   resume. *)
let kill_after ~(cancel : Cancel.t) (k : int) (cands : Candidate.t list) : Candidate.t list =
  if k < 1 then invalid_arg "Chaos.kill_after: k must be >= 1";
  let completed = Atomic.make 0 in
  List.map
    (fun (c : Candidate.t) ->
      let run () =
        Fun.protect
          ~finally:(fun () ->
            if Atomic.fetch_and_add completed 1 + 1 = k then Cancel.cancel cancel)
          c.run
      in
      { c with run })
    cands
