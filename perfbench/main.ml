(* The tuner's benchmark: one command per workload run.

     perfbench --workload cold-explore|cold-tune|warm-serve
               --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 runs the same inputs untraced and then traced, at one
   job, and reports the per-layer metrics (see [Trace]).

   Every time figure of an untraced run is measured on the wall clock
   and adjusted to a standard host by the reference job timed beside it
   (see [Calib]); the summary line carries the adjusted figures, named
   with "ref" ([configs_per_ref_s], [latency_p50_ref_ms], ...), and the
   report line the wall-clock ones under the plain names.

   Standard output gets two JSON lines: the full report (every metric
   with its unit, sample count, median and quartiles; one row per
   search on the cold workloads; in a traced run, the three largest
   layers), then the summary line
   {"correct", "attempted", "failed", "metrics"}.  Progress goes to
   standard error.  The exit code is 0 when every output check passed,
   1 when one failed, and 2 on a usage or set-up error. *)

open Report

let end_to_end =
  [ "setup_s"; "configs_per_ref_s"; "requests_per_ref_s"; "latency_p50_ref_ms"; "latency_p99_ref_ms"; "peak_rss_mb" ]

(* The host-adjusted twin of a wall-clock time metric. *)
let as_adjusted (m : metric) : metric =
  let name, unit_ =
    match m.name with
    | "configs_per_s" -> ("configs_per_ref_s", "1/ref_s")
    | "requests_per_s" -> ("requests_per_ref_s", "1/ref_s")
    | "latency_p50_ms" -> ("latency_p50_ref_ms", "ref_ms")
    | "latency_p99_ms" -> ("latency_p99_ref_ms", "ref_ms")
    | n -> invalid_arg ("as_adjusted: " ^ n)
  in
  { m with name; unit_ }

(* The reference job's times as a metric, in milliseconds. *)
let host_ref (refs : float array) : metric =
  let samples = Array.map (fun x -> x *. 1000.0) refs in
  { name = "host.ref_ms"; unit_ = "ms"; value = median samples; samples }

(* Per-layer metrics and units, in report order.  A workload that does
   not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("pipeline.s", "s"); ("pipeline.configs", "count"); ("pipeline.distinct_kernels", "count");
    ("pipeline.ptx_instrs", "count"); ("pipeline.kir_s", "s"); ("pipeline.lower_s", "s");
    ("pipeline.ptx_opt_s", "s"); ("pipeline.characterize_s", "s");
    ("sim.s", "s"); ("sim.runs", "count"); ("sim.launches", "count"); ("sim.warp_instrs", "count");
    ("sim.winstr_per_s", "1/s"); ("sim.minor_words_per_winstr", "words"); ("measure.cache_hits", "count");
    ("store.appends", "count"); ("store.bytes", "bytes"); ("store.hits", "count");
    ("store.misses", "count"); ("store.hit_rate", "ratio"); ("store.get_s", "s"); ("store.open_s", "s");
    ("store.self_s", "s");
    ("metrics.s", "s"); ("metrics.calls", "count"); ("pareto.s", "s"); ("pareto.selected", "count");
    ("prune.s", "s"); ("prune.probes", "count"); ("prune.raced", "count"); ("prune.simulated", "count");
    ("prune.optimum_rank", "count");
    ("proto.encode_s", "s"); ("proto.decode_s", "s"); ("proto.reply_bytes", "bytes");
    ("serve.handle_s", "s"); ("serve.self_s", "s"); ("serve.wire_s", "s"); ("serve.errors", "count");
    ("serve.overloaded", "count");
    ("search.self_s", "s");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("tuned_kernel_ms", "sim_ms"); ("pareto_pick_ratio", "ratio"); ("pareto_simulated_frac", "ratio");
    ("predict_pick_ratio", "ratio"); ("predict_simulated_frac", "ratio");
    ("error_rate", "ratio");
    ("trace.wall_s", "s"); ("trace.untraced_wall_s", "s"); ("trace.overhead_s", "s");
    ("trace.layer_sum_s", "s"); ("trace.reconcile_err", "ratio");
    ("host.ref_ms", "ms");
  ]

(* Layer self times must add up to the traced wall time, less the
   replays and the benchmark's bookkeeping, within this share. *)
let reconcile_tolerance = 0.05

let workloads = [ "cold-explore"; "cold-tune"; "warm-serve" ]
let scratch = ".perfbench"
let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let trace_file workload seed = Filename.concat scratch (Printf.sprintf "trace-%s-%d.json" workload seed)

let geomean = function
  | [] -> 0.0
  | xs -> Util.Stats.geomean (Array.of_list xs)

let ms xs = Array.map (fun x -> x *. 1000.0) xs

(* The warm workload's latency metrics: the median and the p99. *)
let latency_metrics (lat_s : float array) : metric list =
  let p50 = median lat_s and p99, _ = percentile lat_s 0.99 in
  [
    { name = "latency_p50_ms"; unit_ = "ms"; value = p50 *. 1000.0; samples = ms lat_s };
    { name = "latency_p99_ms"; unit_ = "ms"; value = p99 *. 1000.0; samples = ms lat_s };
  ]

(* The run must leave at least ten samples above the p99. *)
let tail_check tally (lat_s : float array) : unit =
  let _, above = percentile lat_s 0.99 in
  operation tally "latency samples"
    [ (above >= 10, Printf.sprintf "only %d sample(s) above p99 (of %d)" above (Array.length lat_s)) ]

(* Quality of the answers, deterministic for a given input. *)
let quality_metrics ~tuned_s ~pareto_ratio ~pareto_frac ~predict_ratio ~predict_frac : (string * float) list =
  [
    ("tuned_kernel_ms", geomean tuned_s *. 1000.0);
    ("pareto_pick_ratio", geomean pareto_ratio);
    ("pareto_simulated_frac", geomean pareto_frac);
    ("predict_pick_ratio", geomean predict_ratio);
    ("predict_simulated_frac", geomean predict_frac);
  ]

(* Trace-derived layer figures and the reconciliation check. *)
let trace_metrics tally (tr : Trace.t) ~traced_wall ~untraced_wall : (string * float) list * Util.Json.t =
  let layers = Trace.layer_self tr in
  let self l = Option.value (List.assoc_opt l layers) ~default:0.0 in
  let primary = traced_wall -. tr.replay_s in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 layers in
  let negative = List.fold_left (fun a (_, v) -> if v < 0.0 then a -. v else a) 0.0 layers in
  let err = (Float.abs (primary -. sum) +. negative) /. primary in
  operation tally "layer reconciliation"
    [
      ( err <= reconcile_tolerance,
        Printf.sprintf "layer self times sum to %.3fs against %.3fs of traced wall (%.1f%% off)" sum
          primary (100.0 *. err) );
    ];
  let top =
    List.filteri (fun i _ -> i < 3) layers
    |> List.map (fun (l, v) ->
           Util.Json.Obj [ ("layer", Str l); ("self_s", Float v); ("share", Float (v /. primary)) ])
  in
  ( [
      ("sim.s", self "sim");
      ("store.self_s", self "store");
      ("prune.s", self "prune");
      ("search.self_s", self "search");
      ("serve.self_s", self "serve");
      ("trace.wall_s", traced_wall);
      ("trace.untraced_wall_s", untraced_wall);
      ("trace.overhead_s", traced_wall -. untraced_wall);
      ("trace.layer_sum_s", sum);
      ("trace.reconcile_err", err);
    ],
    Util.Json.List top )

let layer_metrics acc (extra : (string * float) list) : metric list =
  let v name = match List.assoc_opt name extra with Some x -> x | None -> get acc name in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let derived =
    [
      ("sim.winstr_per_s", ratio (v "sim.warp_instrs") (v "sim.s"));
      ("sim.minor_words_per_winstr", ratio (get acc "sim.minor_words") (v "sim.warp_instrs"));
      ("store.hit_rate", ratio (v "store.hits") (v "store.hits" +. v "store.misses"));
    ]
  in
  List.map
    (fun (name, unit_) ->
      let x = match List.assoc_opt name derived with Some x -> x | None -> v name in
      single name unit_ x)
    per_layer

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Measurement worker domains.  Results are bit-identical for any
   value (the self-test checks one against two); one job keeps the
   allocation sequence, and so the memory high-water mark, the same
   from run to run, and keeps the measured runs comparable with the
   traced run, which needs one job. *)
let jobs = 1

(* One report row per cold search. *)
let item_rows (passes : Cold.item list list) : Util.Json.t =
  Util.Json.List
    (List.concat
       (List.mapi
          (fun pass items ->
            List.map
              (fun (i : Cold.item) ->
                Util.Json.Obj
                  [
                    ("pass", Int pass);
                    ("pair", Str (Gen.pair_name i.pair));
                    ("latency_s", Float i.latency_s);
                    ("ref_s", Float i.ref_s);
                    ("configs", Int i.configs);
                    ("tuned_kernel_ms", Float (i.tuned_s *. 1000.0));
                  ])
              items)
          passes))

(* Set-ups per run; [setup_s] is their median.  A cold set-up is the
   workload's own call at quick scale on every pair of its basket, so it
   pays the first-use costs a user's first search pays; it is repeated
   so that one slow spell of the host does not decide the figure.  The
   time from start to the first timed search, all set-ups included, is
   reported as [first_timed_s].  A cold-explore set-up takes a fraction
   of a second, a cold-tune one a few seconds. *)
let setups = function Cold.Explore -> 5 | Cold.Tune -> 3

(* A cold run makes a handful of searches, too few for a tail
   percentile, so the p99 slot carries the median; the report says so. *)
let cold_p99_note =
  Util.Json.Obj
    [
      ("latency_p99_ms", Str "cold workloads: too few searches for a tail; this is latency_p50_ms");
      ("latency_p99_ref_ms", Str "cold workloads: too few searches for a tail; this is latency_p50_ref_ms");
    ]

(* A cold run's time metrics, with [time] giving each search's time:
   every pair of the basket stands for itself by its median time over
   the passes, so a slow spell of the host moves a figure only if it
   lasts through half of one pair's searches. *)
let cold_times (w : Cold.workload) (items : Cold.item list) (time : Cold.item -> float) : metric list =
  let pairs =
    List.map
      (fun (p : Gen.pair) ->
        let mine = List.filter (fun (i : Cold.item) -> i.pair = p) items in
        ((List.hd mine).configs, median (Array.of_list (List.map time mine))))
      (Cold.basket w)
  in
  let busy = List.fold_left (fun a (_, t) -> a +. t) 0.0 pairs in
  let configs = List.fold_left (fun a (c, _) -> a + c) 0 pairs in
  let per_item f = Array.of_list (List.map f items) in
  let latency =
    {
      name = "latency_p50_ms";
      unit_ = "ms";
      value = 1000.0 *. median (Array.of_list (List.map snd pairs));
      samples = per_item (fun i -> 1000.0 *. time i);
    }
  in
  [
    {
      name = "configs_per_s";
      unit_ = "1/s";
      value = float_of_int configs /. busy;
      samples = per_item (fun i -> float_of_int i.configs /. time i);
    };
    {
      name = "requests_per_s";
      unit_ = "1/s";
      value = float_of_int (List.length pairs) /. busy;
      samples = per_item (fun i -> 1.0 /. time i);
    };
    latency;
    { latency with name = "latency_p99_ms" };
  ]

(* Returns (metrics, extra report fields).  Untraced, each pair of the
   basket is searched once per pass (see [cold_times]). *)
let run_cold tally ~(w : Cold.workload) ~seed ~seconds ~trace : metric list * (string * Util.Json.t) list =
  let mk ?tr ?(isolate = false) () =
    { Cold.jobs; dir = scratch; tr; acc = acc (); kernels = Hashtbl.create 64; tally; isolate; child_peak_mb = ref 0.0 }
  in
  let t_start = now () in
  let n_setups = setups w in
  let setup_times =
    Array.init n_setups (fun _ ->
        let t0 = now () in
        Cold.setup (mk ()) ~seed w;
        now () -. t0)
  in
  let first_timed_s = now () -. t_start in
  log "perfbench: set-up %.3fs (median of %d); first timed search at %.3fs" (median setup_times)
    n_setups first_timed_s;
  let quality (items : Cold.item list) =
    quality_metrics
      ~tuned_s:(List.map (fun (i : Cold.item) -> i.tuned_s) items)
      ~pareto_ratio:(List.filter_map (fun (i : Cold.item) -> i.pareto_ratio) items)
      ~pareto_frac:(List.map (fun (i : Cold.item) -> i.pareto_frac) items)
      ~predict_ratio:(List.filter_map (fun (i : Cold.item) -> i.predict_ratio) items)
      ~predict_frac:(List.filter_map (fun (i : Cold.item) -> i.predict_frac) items)
  in
  if not trace then begin
    let env = mk ~isolate:true () in
    let passes, _ = Cold.run env ~seed ~seconds w in
    let items = List.concat passes in
    log "perfbench: %d passes of %d searches" (List.length passes) (List.length (Cold.basket w));
    let wall = cold_times w items (fun i -> i.latency_s) in
    let adjusted =
      cold_times w items (fun i -> i.latency_s *. Calib.nominal_s /. i.ref_s) |> List.map as_adjusted
    in
    let refs = host_ref (Array.of_list (List.map (fun (i : Cold.item) -> i.ref_s) items)) in
    ( ({ name = "setup_s"; unit_ = "s"; value = median setup_times; samples = setup_times } :: adjusted)
      @ [ single "peak_rss_mb" "MB" (Float.max (peak_rss_mb ()) !(env.child_peak_mb)) ],
      [
        ("first_timed_s", Float first_timed_s);
        ("wall_clock", List (List.map metric_json (wall @ [ refs ])));
        ("notes", cold_p99_note);
        ("items", item_rows passes);
      ] )
  end
  else begin
    (* The untraced reference pass runs before and after the traced one
       and the faster counts, so that the first pass's heap growth is
       not read as negative tracing overhead. *)
    let untraced () = Cold.run (mk ()) ~seed ~seconds ~max_passes:1 w in
    let passes_u, before = untraced () in
    let tr = Trace.create () in
    let env = mk ~tr () in
    let gc0 = Gc.quick_stat () in
    let passes_t, traced_wall = Cold.run env ~seed ~seconds ~max_passes:1 w in
    let gc1 = Gc.quick_stat () in
    let _, after = untraced () in
    let untraced_wall = Float.min before after in
    let items_t = List.concat passes_t in
    let fingerprints passes = List.map (fun (i : Cold.item) -> i.fingerprint) (List.concat passes) in
    operation tally "tracing is invisible"
      [ (fingerprints passes_u = fingerprints passes_t, "traced and untraced searches disagree") ];
    let tm, top = trace_metrics tally tr ~traced_wall ~untraced_wall in
    let layers = Trace.layer_self tr in
    let extra =
      tm @ quality items_t
      @ [
          ("pipeline.s", Option.value (List.assoc_opt "pipeline" layers) ~default:0.0);
          ("pipeline.distinct_kernels", float_of_int (Hashtbl.length env.kernels));
          ("gc.minor_words", gc1.minor_words -. gc0.minor_words);
          ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
          ("host.ref_ms", (host_ref (Array.of_list (List.map (fun (i : Cold.item) -> i.ref_s) items_t))).value);
        ]
    in
    Trace.write tr (trace_file (Cold.name w) seed);
    (layer_metrics env.acc extra, [ ("top_layers", top) ])
  end

(* One report row per request kind: its count and median latency, so
   that a claim about the warm figures can be checked against the mix. *)
let kind_rows (sent : Warm.sent list) : Util.Json.t =
  Util.Json.List
    (List.map
       (fun (k, _) ->
         let lat =
           List.filter_map
             (fun (x : Warm.sent) -> if x.s_req.kind = k then Some (x.s_latency *. 1000.0) else None)
             sent
         in
         Util.Json.Obj
           [
             ("kind", Str (Gen.kind_name k));
             ("requests", Int (List.length lat));
             ("latency_p50_ms", Float (median (Array.of_list lat)));
           ])
       Gen.mix)

(* The warm timed phase runs in rounds of this many seconds.  Before
   and after each the reference job is timed, with the clients idle,
   and the mean of the two adjusts that round's figures (see [Calib]). *)
let round_s = 2.0

type round = { ref_s : float; sent : Warm.sent list; wall : float }

let run_warm tally ~seed ~seconds ~trace : metric list * (string * Util.Json.t) list =
  let env = { Warm.jobs; dir = scratch; acc = acc (); tally } in
  let t_start = now () in
  let s = Warm.start env ~seed () in
  let setup = now () -. t_start in
  log "perfbench: set-up %.2fs, resident high-water %.1f MB" setup (peak_rss_mb ());
  let rounds =
    Fun.protect
      ~finally:(fun () -> Warm.stop s)
      (fun () ->
        let streams = Warm.streams ~seed s in
        let t0 = now () in
        let rec go acc n before =
          if now () -. t0 >= seconds && n >= Warm.min_requests then List.rev acc
          else begin
            let sent, wall = Warm.timed env s ~streams ~seconds:round_s in
            let after = Calib.sample () in
            go ({ ref_s = (before +. after) /. 2.0; sent; wall } :: acc) (n + List.length sent) after
          end
        in
        go [] 0 (Calib.sample ()))
  in
  Fun.protect
    ~finally:(fun () -> Warm.close s)
    (fun () ->
      let sent = List.concat_map (fun r -> r.sent) rounds in
      let refs = host_ref (Array.of_list (List.map (fun r -> r.ref_s) rounds)) in
      log "perfbench: %d requests in %d rounds" (List.length sent) (List.length rounds);
      if not trace then begin
        let size (x : Warm.sent) = Option.value (Hashtbl.find_opt s.sizes (Warm.truth_key x.s_req)) ~default:0 in
        (* [adjust] scales a time: 1 on the wall clock, or the round's
           factor to the standard host. *)
        let figures (adjust : round -> float) =
          let per_round f = Array.of_list (List.map f rounds) in
          let rate name f =
            let samples =
              per_round (fun r ->
                  List.fold_left (fun a x -> a +. f x) 0.0 r.sent /. (r.wall *. adjust r))
            in
            { name; unit_ = "1/s"; value = median samples; samples }
          in
          let lat =
            Array.of_list
              (List.concat_map (fun r -> List.map (fun (x : Warm.sent) -> x.s_latency *. adjust r) r.sent) rounds)
          in
          [ rate "configs_per_s" (fun x -> float_of_int (size x)); rate "requests_per_s" (fun _ -> 1.0) ]
          @ latency_metrics lat
        in
        let wall = figures (fun _ -> 1.0) in
        let adjusted = List.map as_adjusted (figures (fun r -> Calib.nominal_s /. r.ref_s)) in
        tail_check tally (Array.of_list (List.map (fun (x : Warm.sent) -> x.s_latency) sent));
        ( (single "setup_s" "s" setup :: adjusted) @ [ single "peak_rss_mb" "MB" (peak_rss_mb ()) ],
          [ ("wall_clock", Util.Json.List (List.map metric_json (wall @ [ refs ]))); ("kinds", kind_rows sent) ] )
      end
      else begin
        let tr = Trace.create () in
        let gc0 = Gc.quick_stat () in
        let replayed, untraced_wall, traced_wall = Warm.replay env tr s ~seconds sent in
        let gc1 = Gc.quick_stat () in
        log "perfbench: replayed %d requests in process" replayed;
        let tm, top = trace_metrics tally tr ~traced_wall ~untraced_wall in
        let tuned_s, pareto_ratio, pareto_frac, predict_ratio, predict_frac = Warm.quality s in
        let extra =
          tm
          @ quality_metrics ~tuned_s ~pareto_ratio ~pareto_frac ~predict_ratio ~predict_frac
          @ [
              ("gc.minor_words", gc1.minor_words -. gc0.minor_words);
              ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
              ("host.ref_ms", refs.value);
            ]
        in
        Trace.write tr (trace_file "warm-serve" seed);
        (layer_metrics env.acc extra, [ ("top_layers", top); ("replayed", Int replayed) ])
      end)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload cold-explore|cold-tune|warm-serve --seed N --seconds S --trace 0|1";
  exit 2

let parse (argv : string list) =
  let rec go w seed secs trace = function
    | "--workload" :: v :: tl when List.mem v workloads -> go (Some v) seed secs trace tl
    | "--seed" :: v :: tl when int_of_string_opt v <> None -> go w (int_of_string_opt v) secs trace tl
    | "--seconds" :: v :: tl -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 && Float.is_finite s -> go w seed (Some s) trace tl
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: tl -> go w seed secs (Some (v = "1")) tl
    | [] -> (
      match (w, seed, secs, trace) with
      | Some w, Some seed, Some secs, Some trace -> (w, seed, secs, trace)
      | _ -> usage ())
    | _ -> usage ()
  in
  go None None None None argv

let () =
  let workload, seed, seconds, trace = parse (List.tl (Array.to_list Sys.argv)) in
  (try Unix.mkdir scratch 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tally = Report.tally () in
  let metrics, extra =
    match workload with
    | "cold-explore" -> run_cold tally ~w:Cold.Explore ~seed ~seconds ~trace
    | "cold-tune" -> run_cold tally ~w:Cold.Tune ~seed ~seconds ~trace
    | _ -> run_warm tally ~seed ~seconds ~trace
  in
  let expected = if trace then List.map fst per_layer else end_to_end in
  let metrics =
    List.map (fun name -> List.find (fun (m : metric) -> m.name = name) metrics) expected
  in
  operation tally "metric values"
    (List.map
       (fun (m : metric) -> (Float.is_finite m.value, m.name ^ " is not a finite number"))
       metrics);
  let metrics =
    List.map (fun (m : metric) -> if Float.is_finite m.value then m else { m with value = 0.0 }) metrics
  in
  List.iter (fun m -> log "perfbench: FAILED %s" m) (List.rev tally.failures);
  let error_rate = float_of_int tally.failed /. float_of_int (max 1 tally.attempted) in
  let metrics =
    List.map (fun (m : metric) -> if m.name = "error_rate" then single m.name m.unit_ error_rate else m) metrics
  in
  let correct = tally.failed = 0 in
  let report =
    Util.Json.Obj
      ([
         ("workload", Util.Json.Str workload);
         ("seed", Int seed);
         ("seconds", Float seconds);
         ("trace", Bool trace);
         ("jobs", Int jobs);
         ("attempted", Int tally.attempted);
         ("failed", Int tally.failed);
         ("failures", List (List.map (fun s -> Util.Json.Str s) (List.rev tally.failures)));
         ("metrics", List (List.map metric_json metrics));
       ]
      @ extra)
  in
  print_endline (Util.Json.to_string report);
  print_endline
    (Util.Json.to_string
       (summary_json ~correct ~attempted:tally.attempted ~failed:tally.failed metrics));
  exit (if correct then 0 else 1)
