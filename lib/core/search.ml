(* Exhaustive vs Pareto-pruned search over an optimization space
   (the paper's section 5 experiment, producing Table 4's rows).

   Exhaustive search runs every valid configuration and finds the true
   optimum.  Pruned search computes the two static metrics for every
   valid configuration (cheap: compile-only), keeps the Pareto-optimal
   subset, and runs only those.  The headline claims this reproduces:
   the optimum stays inside the selected subset, and the selected
   subset is a small fraction of the space.

   Fault tolerance: a candidate whose measurement faults (pass bug,
   launch rejection, simulator trap, watchdog abort — see [Fault]) is
   recorded in [result.faults] and excluded from the survivors; every
   statistic, the Pareto subset and both optima are computed over the
   survivors.  A fault-free sweep produces exactly the pre-fault-
   tolerance result with [faults = []].  [~fail_fast:true] restores the
   historical semantics: the first fault in candidate order aborts the
   sweep as [Fault.Fail]. *)

type measured = Measure.measured = { cand : Candidate.t; time_s : float }

type result = {
  app_name : string;
  space_size : int;  (* valid configurations *)
  invalid : int;  (* configurations rejected at compile/launch time *)
  faults : (Candidate.t * Fault.t) list;  (* measured-as-failed, in space order *)
  all : (Candidate.t * Metrics.t) list;  (* valid ones with their metrics *)
  exhaustive : measured list;  (* every surviving config, measured *)
  best : measured;  (* the true optimum among survivors *)
  full_eval_time : float;  (* Table 4 "evaluation time" *)
  selected : (Candidate.t * Metrics.t) list;  (* Pareto-optimal subset *)
  selected_measured : measured list;
  selected_best : measured;  (* best within the subset *)
  selected_eval_time : float;  (* Table 4 "selected evaluation time" *)
  reduction : float;  (* fraction of the space pruned away *)
  optimum_selected : bool;
      (* headline: did pruning keep the optimum (up to measurement
         equivalence — the paper's own MRI clusters treat <= 5.4%
         differences as "identical or nearly identical"; we use 2%)? *)
  optimum_exact : bool;  (* strict version: the argmin itself selected *)
  engine : Measure.stats;
      (* the sweep engine's counters, summed with the race's
         reduced-shape engine when [?predict] was given *)
  prune : Prune.outcome option;
      (* the model-driven race's outcome when [?predict] was given:
         what a budget-bounded search would have simulated and chosen,
         measured against this result's exhaustive ground truth *)
}

(* Bind a content-addressed result store to a measurement engine.  The
   key function defaults to [Store.candidate_key] over this candidate
   space's digests ([Store.space_digests]; [store_scale] tags the
   problem scale — quick and paper-scale spaces share descs but not
   simulated times).  Callers that issue many sweeps over the same
   space (the serve daemon) pass a memoized [store_key] instead, so the
   space digest is not recomputed per request. *)
let bind_store engine ~(app_name : string) (cands : Candidate.t list) ~store ~store_key
    ~store_scale : unit =
  match store with
  | None -> ()
  | Some st ->
    let key =
      match store_key with
      | Some k -> k
      | None ->
        let scale = Option.value store_scale ~default:"full" in
        let arch, space = Store.space_digests ~app_name ~scale cands in
        Store.candidate_key ~arch ~space
    in
    Measure.attach_store engine ~store:st ~key

(* [?jobs] is the number of measurement worker domains (default:
   [Util.Pool.default_jobs], in 1..[Util.Pool.max_jobs]).  The result
   is identical for every value of [jobs]: measurement order does not
   affect simulated times, and all orderings in [result] follow the
   input candidate order.

   [?store] attaches the persistent content-addressed store: points it
   already holds are answered without the simulator, and new
   measurements are appended as they settle, for every later client
   and for a rerun of an interrupted sweep (see [bind_store] for
   [?store_key] / [?store_scale]).

   [?predict] additionally runs the model-driven race ([Prune.run])
   against the same engine.  Because the exhaustive sweep has already
   filled the cache, the race's probe and survivor measurements cost
   nothing extra here, nor does the race rung of a space that races
   against itself — its structural counts still report what a
   budget-only run would have simulated.  The race's reduced-shape
   engine, which measures twins that are different kernels, is counted
   in [result.engine] with the sweep's.

   [?cancel] is a cooperative cancellation token checked between
   candidates ([Cancel], [Measure.measure_outcomes]): a sweep whose
   token trips with measurements still outstanding aborts with
   [Cancel.Cancelled] instead of holding its worker; outcomes settled
   before the trip stay cached and stored for the retry. *)
let run ?jobs ?(fail_fast = false) ?store ?store_key ?store_scale ?predict ?cancel
    ~(app_name : string) (cands : Candidate.t list) : result =
  let valid, invalid = List.partition (fun (c : Candidate.t) -> c.valid) cands in
  if valid = [] then invalid_arg (app_name ^ ": no valid configuration in the space");
  let all = List.map (fun c -> (c, Metrics.of_candidate c)) valid in
  let engine = Measure.create ~app_name () in
  bind_store engine ~app_name cands ~store ~store_key ~store_scale;
  (* Exhaustive exploration: measure everything; faults settle as
     recorded outcomes instead of killing the sweep. *)
  let outcomes = Measure.measure_outcomes ?jobs ?cancel engine valid in
  let faults =
    List.filter_map
      (fun (c, o) -> match o with Error f -> Some (c, f) | Ok _ -> None)
      outcomes
  in
  (if fail_fast then
     match faults with
     | ((c : Candidate.t), fault) :: _ -> raise (Fault.Fail { desc = c.desc; fault })
     | [] -> ());
  let exhaustive =
    List.filter_map
      (fun ((c : Candidate.t), o) ->
        match o with Ok time_s -> Some { cand = c; time_s } | Error _ -> None)
      outcomes
  in
  if exhaustive = [] then
    invalid_arg
      (Printf.sprintf "%s: every configuration in the space faulted (%d fault(s))" app_name
         (List.length faults));
  let best =
    match Util.Stats.argmin (fun m -> m.time_s) exhaustive with
    | Some b -> b
    | None -> assert false
  in
  let full_eval_time = List.fold_left (fun a m -> a +. m.time_s) 0.0 exhaustive in
  (* Pruned exploration over the survivors: Pareto subset on
     (efficiency, utilization) at the paper's plot resolution
     (metric-indistinguishable clusters survive whole, as in
     Figure 6(b)).  With no faults this is the whole valid space —
     the pre-fault-tolerance behavior, bit for bit. *)
  let survivors =
    match faults with
    | [] -> all
    | _ ->
      let dead = List.map (fun ((c : Candidate.t), _) -> c.desc) faults in
      List.filter (fun ((c : Candidate.t), _) -> not (List.mem c.desc dead)) all
  in
  let selected =
    Pareto.frontier_quantized
      (fun (_, m) -> Metrics.(m.efficiency, m.utilization))
      survivors
  in
  (* The Pareto subset re-reads the exhaustive measurements from the
     cache; [time_exn] asserts the hit.  A miss would mean a selected
     candidate escaped the exhaustive sweep — the old ad-hoc table
     silently re-measured in that case, double-counting
     [selected_eval_time]. *)
  let selected_measured =
    List.map (fun (c, _) -> { cand = c; time_s = Measure.time_exn engine c }) selected
  in
  let selected_best =
    match Util.Stats.argmin (fun m -> m.time_s) selected_measured with
    | Some b -> b
    | None -> assert false
  in
  let selected_eval_time =
    List.fold_left (fun a m -> a +. m.time_s) 0.0 selected_measured
  in
  let space_size = List.length valid in
  let n_survivors = List.length exhaustive in
  let n_sel = List.length selected in
  let prune =
    Option.map
      (fun spec -> Prune.run ?jobs ?store ?store_scale ?cancel ~engine ~app_name spec valid)
      predict
  in
  {
    app_name;
    space_size;
    invalid = List.length invalid;
    faults;
    all;
    exhaustive;
    best;
    full_eval_time;
    selected;
    selected_measured;
    selected_best;
    selected_eval_time;
    reduction = 1.0 -. (float_of_int n_sel /. float_of_int n_survivors);
    optimum_selected = selected_best.time_s <= best.time_s *. 1.02;
    optimum_exact =
      List.exists
        (fun ((c : Candidate.t), _) -> String.equal c.desc best.cand.desc)
        selected;
    engine =
      Measure.sum
        (Measure.stats engine
        :: Option.to_list (Option.map (fun (o : Prune.outcome) -> o.pr_reduced_engine) prune));
    prune;
  }

(* Pruned-only search: what a user of the methodology actually runs —
   compile + metrics for the whole space, measurement only for the
   Pareto subset.  The chosen configuration skips faulted subset
   members (the choice is over the survivors). *)
type tuned = {
  chosen : measured;  (* fastest surviving Pareto-selected config *)
  considered : (Candidate.t * Metrics.t) list;  (* the Pareto subset *)
  tune_space_size : int;  (* valid configurations in the space *)
  tune_engine : Measure.stats;
}

let tune_full ?jobs ?store ?store_key ?store_scale ?cancel ~(app_name : string)
    (cands : Candidate.t list) : tuned =
  let valid = List.filter (fun (c : Candidate.t) -> c.valid) cands in
  if valid = [] then invalid_arg (app_name ^ ": no valid configuration in the space");
  let all = List.map (fun c -> (c, Metrics.of_candidate c)) valid in
  let selected =
    Pareto.frontier_quantized (fun (_, m) -> Metrics.(m.efficiency, m.utilization)) all
  in
  let engine = Measure.create ~app_name () in
  bind_store engine ~app_name cands ~store ~store_key ~store_scale;
  let outcomes = Measure.measure_outcomes ?jobs ?cancel engine (List.map fst selected) in
  let measured =
    List.filter_map
      (fun ((c : Candidate.t), o) ->
        match o with Ok time_s -> Some { cand = c; time_s } | Error _ -> None)
      outcomes
  in
  match Util.Stats.argmin (fun m -> m.time_s) measured with
  | Some best ->
    {
      chosen = best;
      considered = selected;
      tune_space_size = List.length valid;
      tune_engine = Measure.stats engine;
    }
  | None -> invalid_arg (app_name ^ ": every selected configuration faulted")

let tune ?jobs ~(app_name : string) (cands : Candidate.t list) :
    measured * (Candidate.t * Metrics.t) list =
  let r = tune_full ?jobs ~app_name cands in
  (r.chosen, r.considered)

(* ------------------------------------------------------------------ *)
(* Cross-arch sweeps                                                   *)
(* ------------------------------------------------------------------ *)

(* One registry machine's sweep within a cross-arch run. *)
type arch_result = { ar_arch : Gpu.Arch.t; ar_result : result }

(* Sweep one app across several machine models: the arch is a genuine
   enumerable axis ([Space.axis] over the registry values), and each
   point of that axis runs the full exhaustive-vs-pruned search on
   candidates compiled *for that machine* — occupancy, validity,
   metrics and simulated times all come from the arch the candidate
   carries.  Each arch gets its own measurement engine (the engine's
   memo key is the candidate desc, which repeats across arches) and
   its own store keys (the arch digest differs), so distinct machines
   can never exchange measurements.  Archs run sequentially in
   registry order; [?jobs] parallelizes within each arch's sweep, so
   results are bit-identical for every jobs value. *)
let run_archs ?jobs ?fail_fast ?store ?store_scale ~(app_name : string)
    ~(archs : Gpu.Arch.t list) (candidates_of : Gpu.Arch.t -> Candidate.t list) :
    arch_result list =
  if archs = [] then invalid_arg (app_name ^ ": empty arch list");
  let axis = Space.axis ~name:"arch" ~show:(fun (a : Gpu.Arch.t) -> a.name) archs in
  List.map
    (fun (arch : Gpu.Arch.t) ->
      let cands = candidates_of arch in
      (match List.find_opt (fun (c : Candidate.t) -> c.arch.name <> arch.name) cands with
      | Some c ->
        invalid_arg
          (Printf.sprintf "%s: candidate %s targets arch %s inside the %s sweep" app_name
             c.desc c.arch.name arch.name)
      | None -> ());
      let r = run ?jobs ?fail_fast ?store ?store_scale ~app_name cands in
      { ar_arch = arch; ar_result = r })
    (Space.configs axis)
