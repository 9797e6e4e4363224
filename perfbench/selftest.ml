(* The benchmark's own tests (run by `dune runtest`).

   - The seeded generator: the same seed gives the same streams, and
     different seeds give different ones.
   - Exact-repeat counters: the simulator, pipeline, store and pruning
     counts and the deterministic answer-quality figures of a cold item
     are identical across two runs of one seed and across one and two
     jobs.
   - The warm workload's timed phase runs neither the simulator nor the
     pipeline, and every reply matches its ground truth.
   - The report schema.

   The cold checks use the cheapest spaces; the counters do not depend
   on which spaces are searched. *)

open Report

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let dir = ".perfbench-selftest"

let generator () =
  let cold seed b = Gen.cold_stream ~seed ~n:40 b in
  let warm seed client = Gen.take 200 (Gen.client_stream ~seed ~client Gen.all_pairs) in
  List.iter
    (fun (name, b) ->
      check (name ^ ": same seed, same stream") (cold 7 b = cold 7 b);
      check (name ^ ": different seeds, different streams")
        (List.for_all (fun s -> cold s b <> cold (s + 1) b) [ 1; 2; 3; 100 ]))
    [ ("cold-explore", Gen.explore_basket); ("cold-tune", Gen.tune_basket) ];
  check "warm-serve: same seed, same stream" (warm 7 0 = warm 7 0 && warm 7 1 = warm 7 1);
  check "warm-serve: different seeds and clients, different streams"
    (warm 7 0 <> warm 8 0 && warm 7 0 <> warm 7 1);
  check "warm-serve: the mix draws every kind"
    (List.for_all
       (fun (k, _) -> List.exists (fun (r : Gen.request) -> r.kind = k) (warm 7 0))
       Gen.mix)

(* The counters a cold search leaves, plus its outputs. *)
let cold_counters (w : Cold.workload) ~jobs ~isolate (pairs : Gen.pair list) =
  let env =
    { Cold.jobs; dir; tr = None; acc = acc (); kernels = Hashtbl.create 64; tally = tally (); isolate; child_peak_mb = ref 0.0 }
  in
  let items = List.mapi (fun i p -> Cold.search env ~req:i w p) pairs in
  let counters =
    List.map
      (fun k -> (k, get env.acc k))
      [ "sim.runs"; "sim.launches"; "sim.warp_instrs"; "pipeline.configs"; "store.appends"; "prune.simulated" ]
  in
  let quality =
    List.map
      (fun (i : Cold.item) ->
        (i.fingerprint, i.tuned_s, i.pareto_ratio, i.pareto_frac, i.predict_ratio, i.predict_frac))
      items
  in
  (counters, Hashtbl.length env.kernels, quality, (env.tally.attempted, env.tally.failed))

let exact_repeat () =
  let cases =
    [
      (Cold.Explore, [ { Gen.app = "cp"; arch = "fpga_soft" } ]);
      (Cold.Tune, [ { Gen.app = "cp"; arch = "fpga_soft" }; { Gen.app = "cp"; arch = "g80" } ]);
    ]
  in
  (* The forked searches first: OCaml 5.1 cannot fork once a domain has
     been spawned, and the two-job searches spawn some. *)
  let forked = List.map (fun (w, pairs) -> cold_counters w ~jobs:1 ~isolate:true pairs) cases in
  List.iter2
    (fun (w, pairs) d ->
      let name = Cold.name w in
      let a = cold_counters w ~jobs:1 ~isolate:false pairs in
      let b = cold_counters w ~jobs:1 ~isolate:false pairs in
      let c = cold_counters w ~jobs:2 ~isolate:false pairs in
      let counters, _, _, (attempted, failed) = a in
      check (name ^ ": output checks pass") (attempted > 0 && failed = 0);
      check (name ^ ": the simulator ran")
        (List.assoc "sim.runs" counters > 0.0 && List.assoc "pipeline.configs" counters > 0.0);
      check (name ^ ": counters repeat exactly for one seed") (a = b);
      check (name ^ ": counters repeat exactly for one and two jobs") (a = c);
      check (name ^ ": a search in a child process reports the same") (a = d))
    cases forked

let warm () =
  let env = { Warm.jobs = 2; dir; acc = acc (); tally = tally () } in
  let s = Warm.start env ~seed:5 ~spaces:[ { Gen.app = "cp"; arch = "fpga_soft" } ] () in
  let sent, _ = Fun.protect ~finally:(fun () -> Warm.stop s) (fun () -> Warm.timed env s ~streams:(Warm.streams ~seed:5 s) ~seconds:1.0) in
  Warm.close s;
  check "warm-serve: requests were sent" (List.length sent > 0);
  check "warm-serve: every reply matches its ground truth" (env.tally.failed = 0);
  check "warm-serve: the timed phase ran neither simulator nor pipeline"
    (get env.acc "sim.runs" = 0.0 && get env.acc "sim.launches" = 0.0
    && get env.acc "pipeline.configs" = 0.0)

let schema () =
  let m = { name = "latency_p50_ms"; unit_ = "ms"; value = 2.0; samples = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] } in
  let keys = function Util.Json.Obj kv -> List.map fst kv | _ -> [] in
  check "report: one schema per metric"
    (keys (metric_json m) = [ "name"; "unit"; "value"; "samples"; "median"; "q1"; "q3" ]);
  check "report: quartiles" (Util.Json.member "q1" (metric_json m) = Some (Float 2.0)
                             && Util.Json.member "median" (metric_json m) = Some (Float 3.0));
  check "report: summary line keys"
    (keys (summary_json ~correct:true ~attempted:1 ~failed:0 [ m ])
    = [ "correct"; "attempted"; "failed"; "metrics" ]);
  check "report: p99 leaves the samples above it"
    (percentile (Array.init 1000 float_of_int) 0.99 = (989.0, 10))

let () =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  generator ();
  schema ();
  exact_repeat ();
  warm ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
