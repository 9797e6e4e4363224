(* The two cold workloads: each item compiles one (app, arch) space
   from scratch and searches it.

   cold-explore  bench-scale candidates, then [Search.run ~predict]
                 (racing on the reduced shape) against a fresh
                 non-durable store: the paper's Table 4 experiment plus
                 the model-driven race.  The simulator does most of the
                 work and every measurement is a store append.
   cold-tune     paper-scale candidates, then [Search.tune_full] with no
                 store: the methodology as a user runs it.  Compiling
                 the space is a large share of the time.

   Untraced, an item is one call chain timed as a whole.  Traced (one
   job), the benchmark calls the layers one by one under spans and
   replays the layers it cannot reach directly (see [Trace]). *)

open Report

type env = {
  jobs : int;
  dir : string;  (* scratch directory for store files *)
  tr : Trace.t option;
  acc : acc;
  kernels : (string, unit) Hashtbl.t;  (* distinct kernel digests *)
  tally : tally;
  isolate : bool;  (* run each search in a forked child process *)
  child_peak_mb : float ref;  (* the children's resident high-water mark *)
}

type item = {
  pair : Gen.pair;
  latency_s : float;
  ref_s : float;  (* the reference job's time around the search, set by [run] (see [Calib]) *)
  configs : int;  (* valid configurations carried through to a result *)
  tuned_s : float;  (* simulated seconds of the configuration the pruned search picks *)
  pareto_ratio : float option;  (* selected_best / best *)
  pareto_frac : float;  (* share of the space the Pareto subset simulates *)
  predict_ratio : float option;  (* race winner / best *)
  predict_frac : float option;  (* pr_simulated / pr_total *)
  fingerprint : string;  (* the item's outputs, for bit-identity checks *)
}

let entry name = Option.get (Apps.Registry.find name)
let arch name = Option.get (Gpu.Arch.find name)
let now = Unix.gettimeofday
let hex = Tuner.Hexfloat.to_string

(* Simulator calls are counted in every mode; traced, each is a span
   and its minor-heap allocation is recorded. *)
let sim_calls = Atomic.make 0

let wrap env (c : Tuner.Candidate.t) : Tuner.Candidate.t =
  let run () =
    Atomic.incr sim_calls;
    match env.tr with
    | None -> c.run ()
    | Some tr ->
      let w0 = Gc.minor_words () in
      let t = Trace.span tr "sim" c.run in
      add env.acc "sim.minor_words" (Gc.minor_words () -. w0);
      t
  in
  { c with run }

(* Simulator-side counters over [f]. *)
let counting env (f : unit -> 'a) : 'a =
  let runs0 = Atomic.get sim_calls
  and launches0 = Gpu.Sim.sim_runs ()
  and wi0 = Gpu.Sim.warp_instrs_issued () in
  let y = f () in
  addi env.acc "sim.runs" (Atomic.get sim_calls - runs0);
  addi env.acc "sim.launches" (Gpu.Sim.sim_runs () - launches0);
  addi env.acc "sim.warp_instrs" (Gpu.Sim.warp_instrs_issued () - wi0);
  y

(* The benchmark's own bookkeeping: outside the layer sums when traced. *)
let aside env name (f : unit -> 'a) : 'a =
  match env.tr with None -> f () | Some tr -> fst (Trace.aside tr ("bench." ^ name) f)

let note_pipeline env (cands : Tuner.Candidate.t list) : unit =
  aside env "count" (fun () ->
      addi env.acc "pipeline.configs" (List.length cands);
      List.iter
        (fun (c : Tuner.Candidate.t) ->
          addi env.acc "pipeline.ptx_instrs" (Ptx.Prog.static_size c.kernel);
          Hashtbl.replace env.kernels (Tuner.Store.kernel_digest c) ())
        cands)

let valid_of = List.filter (fun (c : Tuner.Candidate.t) -> c.valid)

(* Traced only: the per-stage split of compiling [e]'s space, from a
   replay of [Registry.compile ~hook] on an even sample of its
   configurations, scaled to the whole space. *)
let stage_split env tr (e : Apps.Registry.entry) : unit =
  let descs = Lazy.force e.configs in
  let n = List.length descs in
  let step = max 1 (n / 48) in
  let sample = List.filteri (fun i _ -> i mod step = 0) descs in
  let scale = float_of_int n /. float_of_int (List.length sample) in
  let key (s : Tuner.Pipeline.stat) =
    match s.layer with
    | Tuner.Pipeline.Kir -> Some "pipeline.kir_s"
    | Lower -> Some "pipeline.lower_s"
    | Ptx -> Some "pipeline.ptx_opt_s"
    | Characterize -> Some "pipeline.characterize_s"
    | Analyze -> None
  in
  let hook (s : Tuner.Pipeline.stat) =
    Option.iter (fun k -> add env.acc k (s.elapsed_s *. scale)) (key s)
  in
  ignore
    (Trace.replay tr "pipeline" (fun () ->
         List.iter (fun d -> ignore (e.compile ~hook d : _ result)) sample))

(* Traced only: replay [Metrics] and [Pareto] on the valid candidates
   and charge them to the search span [sid]. *)
let replay_metrics_pareto env tr sid (valid : Tuner.Candidate.t list) : unit =
  let ms, m = Trace.replay tr "metrics" (fun () -> List.map (fun c -> (c, Tuner.Metrics.of_candidate c)) valid) in
  let sel, p =
    Trace.replay tr "pareto" (fun () ->
        Tuner.Pareto.frontier_quantized
          (fun (_, (m : Tuner.Metrics.t)) -> (m.efficiency, m.utilization))
          ms)
  in
  Trace.attribute tr sid "metrics" m;
  Trace.attribute tr sid "pareto" p;
  add env.acc "metrics.s" m;
  addi env.acc "metrics.calls" (List.length valid);
  add env.acc "pareto.s" p;
  addi env.acc "pareto.selected" (List.length sel)

let store_file env (p : Gen.pair) =
  Filename.concat env.dir (Printf.sprintf "%s-%s-%d.store" p.app p.arch (Unix.getpid ()))

let remove f = try Sys.remove f with Sys_error _ -> ()

let explore_checks (r : Tuner.Search.result) (o : Tuner.Prune.outcome) =
  [
    (r.faults = [], Printf.sprintf "%d faulted candidate(s)" (List.length r.faults));
    (r.optimum_selected, "the Pareto subset lost the optimum");
    (Tuner.Prune.recovered o ~best:r.best, "the race missed the optimum");
  ]

let explore_item env (p : Gen.pair) (r : Tuner.Search.result) (o : Tuner.Prune.outcome) latency_s
    =
  addi env.acc "measure.cache_hits" r.engine.measure_hits;
  addi env.acc "store.hits" r.engine.store_hits;
  addi env.acc "store.misses" r.engine.store_misses;
  addi env.acc "prune.probes" (List.length o.pr_probes);
  addi env.acc "prune.raced" o.pr_raced;
  addi env.acc "prune.simulated" o.pr_simulated;
  addi env.acc "prune.optimum_rank"
    (Option.value (Tuner.Prune.rank_of o r.best.cand.desc) ~default:0);
  {
    pair = p;
    latency_s;
    ref_s = Float.nan;
    configs = r.space_size;
    tuned_s = r.selected_best.time_s;
    pareto_ratio = Some (r.selected_best.time_s /. r.best.time_s);
    pareto_frac = 1.0 -. r.reduction;
    predict_ratio = Some (o.pr_winner.time_s /. r.best.time_s);
    predict_frac = Some (float_of_int o.pr_simulated /. float_of_int o.pr_total);
    fingerprint =
      String.concat " "
        [
          r.best.cand.desc;
          hex r.best.time_s;
          r.selected_best.cand.desc;
          hex r.reduction;
          o.pr_winner.cand.desc;
          hex o.pr_winner.time_s;
          Tuner.Predict.digest o.pr_model;
          string_of_int o.pr_simulated;
        ];
  }

(* One cold-explore item.  Untraced: the user's call, [Search.run
   ~predict].  Traced: the same search split into [Search.run] and
   [Prune.run] on a store-bound engine, with the store, metrics and
   Pareto work inside [Search.run] measured by replay. *)
let explore env ~req (p : Gen.pair) : item =
  let e = entry p.app and arch = arch p.arch in
  let file = store_file env p in
  remove file;
  let app_name = p.app and store_scale = "bench" in
  let item =
    match env.tr with
    | None ->
      let t0 = now () in
      let cands, reduced, r, appends =
        counting env (fun () ->
            let cands = List.map (wrap env) (e.bench_candidates ~arch ()) in
            let reduced = List.map (wrap env) (e.reduced_candidates ~arch ()) in
            let store = Tuner.Store.open_ ~file () in
            let r =
              Tuner.Search.run ~jobs:env.jobs ~store ~store_scale
                ~predict:(Tuner.Prune.spec ~reduced ()) ~app_name cands
            in
            let appends = Tuner.Store.entries store in
            Tuner.Store.close store;
            (cands, reduced, r, appends))
      in
      let latency = now () -. t0  in
      note_pipeline env cands;
      addi env.acc "pipeline.configs" (List.length reduced);
      addi env.acc "store.appends" appends;
      let o = Option.get r.prune in
      operation env.tally (Gen.pair_name p) (explore_checks r o);
      explore_item env p r o latency
    | Some tr ->
      let t0 = now () in
      let pipeline f = Trace.span tr ~req "pipeline" f in
      let cands = pipeline (fun () -> List.map (wrap env) (e.bench_candidates ~arch ())) in
      let reduced = pipeline (fun () -> List.map (wrap env) (e.reduced_candidates ~arch ())) in
      let valid = valid_of cands in
      let r, o, sid, store, open_s =
        counting env (fun () ->
            let t_open = now () in
            let store = Trace.span tr ~req "store" (fun () -> Tuner.Store.open_ ~file ()) in
            let open_s = now () -. t_open in
            let r, sid =
              Trace.span_id tr ~req "search" (fun () ->
                  Tuner.Search.run ~jobs:1 ~store ~store_scale ~app_name cands)
            in
            let o =
              Trace.span tr ~req "prune" (fun () ->
                  let engine = Tuner.Measure.create ~app_name () in
                  Tuner.Search.bind_store engine ~app_name cands ~store:(Some store)
                    ~store_key:None ~store_scale:(Some store_scale);
                  Tuner.Prune.run ~jobs:1 ~store ~store_scale ~engine ~app_name
                    (Tuner.Prune.spec ~reduced ()) valid)
            in
            (r, o, sid, store, open_s))
      in
      let appends = Tuner.Store.entries store in
      Tuner.Store.close store;
      let latency = now () -. t0  in
      add env.acc "store.open_s" open_s;
      add env.acc "store.bytes" (float_of_int (Unix.stat file).Unix.st_size);
      addi env.acc "store.appends" appends;
      note_pipeline env cands;
      addi env.acc "pipeline.configs" (List.length reduced);
      (* Replays of what [Search.run] does inside: metrics and Pareto,
         then its store traffic — a key digest and a lookup per
         candidate before simulating, a second digest and an append
         after. *)
      replay_metrics_pareto env tr sid valid;
      let keys, k =
        Trace.replay tr ~req "store" (fun () ->
            let arch = Tuner.Store.arch_digest ~arch () in
            let space =
              Tuner.Store.space_digest ~app_name ~scale:store_scale
                (List.map (fun (c : Tuner.Candidate.t) -> c.desc) valid)
            in
            List.map (fun c -> Tuner.Store.candidate_key ~arch ~space c) valid)
      in
      let scratch = file ^ ".replay" in
      remove scratch;
      let st = Tuner.Store.open_ ~file:scratch () in
      let times = Hashtbl.create 64 in
      List.iter
        (fun (m : Tuner.Search.measured) -> Hashtbl.replace times m.cand.desc m.time_s)
        r.exhaustive;
      let (), u =
        Trace.replay tr ~req "store" (fun () ->
            List.iter2
              (fun (c : Tuner.Candidate.t) key ->
                Option.iter
                  (fun t -> Tuner.Store.put st ~key ~desc:c.desc (Ok t))
                  (Hashtbl.find_opt times c.desc))
              valid keys)
      in
      let (), g =
        Trace.replay tr ~req "store" (fun () ->
            List.iter (fun key -> ignore (Tuner.Store.get st key : _ option)) keys)
      in
      Tuner.Store.close st;
      remove scratch;
      Trace.attribute tr sid "store" ((2.0 *. k) +. u +. g);
      add env.acc "store.get_s" g;
      stage_split env tr e;
      operation env.tally (Gen.pair_name p) (explore_checks r o);
      explore_item env p r o latency
  in
  remove file;
  item

(* One cold-tune item: compile the paper-scale space, then
   [Search.tune_full].  The chosen configuration is simulated once more
   outside the timed call; its time must reproduce bit for bit. *)
let tune env ~req (p : Gen.pair) : item =
  let e = entry p.app and arch = arch p.arch in
  let app_name = p.app in
  let t0 = now () in
  let raw, r =
    counting env (fun () ->
        match env.tr with
        | None ->
          let raw = e.candidates ~arch () in
          (raw, Tuner.Search.tune_full ~jobs:env.jobs ~app_name (List.map (wrap env) raw))
        | Some tr ->
          let raw = Trace.span tr ~req "pipeline" (fun () -> e.candidates ~arch ()) in
          let cands = List.map (wrap env) raw in
          let r, sid =
            Trace.span_id tr ~req "search" (fun () -> Tuner.Search.tune_full ~jobs:1 ~app_name cands)
          in
          replay_metrics_pareto env tr sid (valid_of cands);
          stage_split env tr e;
          (raw, r))
  in
  let latency = now () -. t0  in
  note_pipeline env raw;
  addi env.acc "measure.cache_hits" r.tune_engine.measure_hits;
  let considered = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) r.considered in
  let again =
    aside env "check" (fun () ->
        Tuner.Fault.run_candidate
          (List.find (fun (c : Tuner.Candidate.t) -> c.desc = r.chosen.cand.desc) raw))
  in
  operation env.tally (Gen.pair_name p)
    [
      (List.mem r.chosen.cand.desc considered, "chosen configuration is not Pareto-selected");
      ( r.tune_engine.measure_runs = List.length considered,
        "not every selected configuration was simulated exactly once" );
      ( (match again with Ok t -> Int64.equal (Int64.bits_of_float t) (Int64.bits_of_float r.chosen.time_s) | Error _ -> false),
        "re-simulating the chosen configuration gave another time" );
    ];
  {
    pair = p;
    latency_s = latency;
    ref_s = Float.nan;
    configs = r.tune_space_size;
    tuned_s = r.chosen.time_s;
    pareto_ratio = None;
    pareto_frac = float_of_int (List.length considered) /. float_of_int r.tune_space_size;
    predict_ratio = None;
    predict_frac = None;
    fingerprint = String.concat " " (r.chosen.cand.desc :: hex r.chosen.time_s :: considered);
  }

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type workload = Explore | Tune

let name = function Explore -> "cold-explore" | Tune -> "cold-tune"

let basket = function Explore -> Gen.explore_basket | Tune -> Gen.tune_basket
let item_fn = function Explore -> explore | Tune -> tune

(* Whole passes over the seeded basket order, each compiling and
   searching from scratch.  Another pass starts while the time measured
   so far plus one more pass fits [seconds], and in any case until
   [min_passes] are done (never more than [max_passes]), so every
   figure of an untraced run is a median over at least three passes. *)
let min_passes = 3

(* Runs [f] in a child process forked from this one, on a fresh
   accumulator, digest table and tally, and merges what it left into
   [env].  Every search then starts from the same process state, as a
   user's search in a fresh process does, and the heap one search
   leaves behind cannot slow the next. *)
let isolated env (f : env -> item) : item =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let child = { env with acc = acc (); kernels = Hashtbl.create 64; tally = tally () } in
    let result = try Ok (f child) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (result, child.acc, child.kernels, child.tally, peak_rss_mb ()) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let got =
      try
        Some
          (Marshal.from_channel ic
            : (item, string) result * acc * (string, unit) Hashtbl.t * tally * float)
      with End_of_file | Failure _ -> None
    in
    close_in ic;
    ignore (Unix.waitpid [] pid : int * Unix.process_status);
    match got with
    | None -> failwith "perfbench: a search process died"
    | Some (result, a, k, t, rss) -> (
      Hashtbl.iter (add env.acc) a;
      Hashtbl.iter (Hashtbl.replace env.kernels) k;
      merge_tally env.tally t;
      env.child_peak_mb := Float.max !(env.child_peak_mb) rss;
      match result with Ok i -> i | Error e -> failwith ("perfbench: a search raised " ^ e)))

(* One search of [w] on [p], in a child process when [env.isolate]. *)
let search env ~req (w : workload) (p : Gen.pair) : item =
  let f = item_fn w in
  if env.isolate then isolated env (fun env -> f env ~req p) else f env ~req p

let run env ~seed ~seconds ?(max_passes = max_int) (w : workload) : item list list * float =
  let t0 = now () in
  let reference () = aside env "reference" Calib.sample in
  let before = ref (reference ()) in
  let rec go pass acc =
    let tp = now () in
    let items =
      List.mapi
        (fun i p ->
          (* Every item starts from a compacted heap, so the order of
             the pairs does not decide how much heap the next one finds. *)
          aside env "compact" Gc.compact;
          let item = search env ~req:((pass * 1000) + i) w p in
          let after = reference () in
          let ref_s = (!before +. after) /. 2.0 in
          before := after;
          { item with ref_s })
        (Gen.pass_order ~seed ~pass (basket w))
    in
    let acc = items :: acc and n = pass + 1 in
    let elapsed = now () -. t0 and last = now () -. tp in
    if n >= max_passes || (n >= min_passes && elapsed +. last > seconds) then List.rev acc
    else go n acc
  in
  let passes = go 0 [] in
  (passes, now () -. t0)

(* One set-up: the inputs, a clean store file, and a quick-scale run of
   the workload's own call on every pair of its basket, so that each
   app's and machine model's first-use costs are paid before timing. *)
let setup env ~seed (w : workload) : unit =
  ignore (Gen.cold_stream ~seed ~n:64 (basket w) : Gen.pair list);
  let file = Filename.concat env.dir (Printf.sprintf "setup-%d.store" (Unix.getpid ())) in
  List.iter
    (fun (p : Gen.pair) ->
      let cands = (entry p.app).quick_candidates ~arch:(arch p.arch) () in
      let app_name = p.app in
      match w with
      | Explore ->
        remove file;
        let store = Tuner.Store.open_ ~file () in
        ignore
          (Tuner.Search.run ~jobs:env.jobs ~store ~predict:(Tuner.Prune.spec ~reduced:cands ())
             ~app_name cands
            : Tuner.Search.result);
        Tuner.Store.close store
      | Tune -> ignore (Tuner.Search.tune_full ~jobs:env.jobs ~app_name cands : Tuner.Search.tuned))
    (basket w);
  remove file
