(* Tests for the static predictor ([Tuner.Predict]) and the
   model-driven race ([Tuner.Prune]).

   The empirical cross-shape fidelity claim — racing at the
   apps' reduced shapes finds the bench-scale optimum — is pinned
   by the bench `prune` exhibit, which sweeps the real spaces.  Here
   the races are *self-reduced* (the reduced space is the target space
   itself), which turns recovery into an exact invariant the machinery
   must meet: probe seeding, the ridge fit, survivor selection and the
   budget math all sit on the path, and any regression that drops the
   true optimum from the survivor set fails loudly. *)

module P = Tuner.Predict
module R = Tuner.Prune

let t name f = Alcotest.test_case name `Quick f
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Predict: ridge regression                                           *)
(* ------------------------------------------------------------------ *)

(* Synthetic linear data over the real feature dimension: y = w.x + b
   with deterministic pseudo-random features.  Ridge with a small
   lambda must recover the relation well enough to rank by it. *)
let synth_rows ~seed n : (float array * float) list =
  let rng = Util.Rng.create seed in
  let w = Array.init P.dim (fun j -> if j < 6 then 0.5 -. (0.17 *. float_of_int j) else 0.0) in
  List.init n (fun _ ->
      let x = Array.init P.dim (fun _ -> Util.Rng.float rng) in
      let y = Array.fold_left ( +. ) 0.3 (Array.mapi (fun j v -> w.(j) *. v) x) in
      (x, y))

let predict_tests =
  [
    t "ridge fit recovers a linear relation" (fun () ->
        let rows = synth_rows ~seed:11 64 in
        let m = P.fit ~lambda:1e-6 rows in
        let holdout = synth_rows ~seed:12 16 in
        List.iter
          (fun (x, y) ->
            let p = P.predict m x in
            if Float.abs (p -. y) > 1e-3 then
              Alcotest.failf "prediction %g too far from %g" p y)
          holdout);
    t "fit is deterministic (same rows, same digest)" (fun () ->
        let rows = synth_rows ~seed:21 32 in
        check_s "digest" (P.digest (P.fit rows)) (P.digest (P.fit rows)));
    t "serialization round-trips through to_lines/of_lines" (fun () ->
        let m = P.fit (synth_rows ~seed:31 32) in
        match P.of_lines (P.to_lines m) with
        | None -> Alcotest.fail "of_lines rejected its own to_lines"
        | Some m' ->
          check_s "digest" (P.digest m) (P.digest m');
          let x = Array.init P.dim (fun j -> 0.01 *. float_of_int j) in
          Alcotest.(check (float 0.0)) "prediction" (P.predict m x) (P.predict m' x));
    t "weight table covers every feature" (fun () ->
        let m = P.fit (synth_rows ~seed:41 32) in
        check_i "entries" P.dim (List.length (P.weight_table m));
        List.iter
          (fun (name, w) ->
            if not (Float.is_finite w) then Alcotest.failf "weight %s not finite" name)
          (P.weight_table m));
    t "of_candidate yields a finite feature vector" (fun () ->
        let e = Option.get (Apps.Registry.find "matmul") in
        List.iter
          (fun (c : Tuner.Candidate.t) ->
            let x = P.of_candidate c in
            check_i "dim" P.dim (Array.length x);
            Array.iteri
              (fun j v ->
                if not (Float.is_finite v) then
                  Alcotest.failf "%s: feature %d not finite" c.desc j)
              x)
          (List.filteri (fun i _ -> i < 8) (e.quick_candidates ())));
  ]

(* ------------------------------------------------------------------ *)
(* Prune: self-reduced races on the smoke spaces                       *)
(* ------------------------------------------------------------------ *)

let entry name = Option.get (Apps.Registry.find name)

(* Smoke spaces and a shared full-scale engine per app: the engine's
   cache makes repeated exhaustive sweeps free, without changing any
   measured value. *)
let space =
  let tbl = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let cands =
        List.filter (fun (c : Tuner.Candidate.t) -> c.valid) ((entry name).quick_candidates ())
      in
      let engine = Tuner.Measure.create ~app_name:name () in
      Hashtbl.replace tbl name (cands, engine);
      (cands, engine)

let exhaustive_best ~jobs name (cands : Tuner.Candidate.t list) : Tuner.Measure.measured =
  let _, engine = space name in
  let ok =
    List.filter_map
      (fun ((c : Tuner.Candidate.t), o) ->
        match o with Ok t -> Some { Tuner.Measure.cand = c; time_s = t } | Error _ -> None)
      (Tuner.Measure.measure_outcomes ~jobs engine cands)
  in
  Option.get (Util.Stats.argmin (fun (m : Tuner.Measure.measured) -> m.time_s) ok)

let self_race ?(jobs = 2) name (cands : Tuner.Candidate.t list) : R.outcome =
  let _, engine = space name in
  R.run ~jobs ~engine ~app_name:name (R.spec ~reduced:cands ()) cands

let outcome_key (o : R.outcome) =
  ( P.digest o.R.pr_model,
    o.R.pr_winner.Tuner.Measure.cand.desc,
    o.R.pr_winner.Tuner.Measure.time_s,
    o.R.pr_simulated,
    o.R.pr_probes,
    o.R.pr_survivors,
    o.R.pr_ranked )

let prune_tests =
  [
    t "self-reduced race finds the exhaustive optimum (matmul, cp)" (fun () ->
        List.iter
          (fun name ->
            let cands, _ = space name in
            let best = exhaustive_best ~jobs:2 name cands in
            let o = self_race name cands in
            check_b (name ^ " recovered") true (R.recovered o ~best);
            if o.R.pr_simulated > o.R.pr_total then
              Alcotest.failf "%s: simulated %d > space %d" name o.R.pr_simulated o.R.pr_total)
          [ "matmul"; "cp" ]);
    t "race stays within its full-simulation budget" (fun () ->
        let cands, _ = space "matmul" in
        let o = self_race "matmul" cands in
        check_i "simulated = probes + survivors"
          (List.length o.R.pr_probes + List.length o.R.pr_survivors)
          o.R.pr_simulated;
        if o.R.pr_simulated > o.R.pr_budget then
          Alcotest.failf "simulated %d over budget %d" o.R.pr_simulated o.R.pr_budget);
    t "jobs 1 vs 4: outcome bit-identical" (fun () ->
        let cands, _ = space "matmul" in
        let a = self_race ~jobs:1 "matmul" cands in
        let b = self_race ~jobs:4 "matmul" cands in
        check_b "outcome key" true (outcome_key a = outcome_key b));
    t "a space raced against itself reuses its sweep: same outcome, half the simulator runs"
      (fun () ->
        (* The twin of a candidate in a self-raced space is the record
           itself, measured through the sweep's engine; a separately
           compiled copy of the same space is a different list, so its
           twins race through the reduced-shape engine.  Both must land
           on the same outcome, and each search must account for every
           simulator launch it caused. *)
        let run reduced cands =
          let launches0 = Gpu.Sim.sim_runs () in
          let r =
            Tuner.Search.run ~jobs:2 ~predict:(R.spec ~reduced ()) ~app_name:"matmul" cands
          in
          (r, Gpu.Sim.sim_runs () - launches0)
        in
        let cands = (entry "matmul").quick_candidates () in
        let self, self_launches = run cands cands in
        let copy, copy_launches = run ((entry "matmul").quick_candidates ()) cands in
        let key (r : Tuner.Search.result) =
          let o = Option.get r.Tuner.Search.prune in
          ( P.digest o.R.pr_model,
            o.R.pr_ranked,
            o.R.pr_probes,
            o.R.pr_survivors,
            o.R.pr_winner.Tuner.Measure.cand.desc,
            Int64.bits_of_float o.R.pr_winner.Tuner.Measure.time_s,
            o.R.pr_simulated )
        in
        check_b "identical outcomes" true (key self = key copy);
        check_i "self-raced launches" 96 self_launches;
        check_i "copy-raced launches" 192 copy_launches;
        check_i "self-raced runs = launches" self_launches self.Tuner.Search.engine.measure_runs;
        check_i "copy-raced runs = launches" copy_launches copy.Tuner.Search.engine.measure_runs);
    t "per-arch recovery (g80, wide32, fpga_soft)" (fun () ->
        List.iter
          (fun (arch : Gpu.Arch.t) ->
            let cands =
              List.filter
                (fun (c : Tuner.Candidate.t) -> c.valid)
                ((entry "matmul").quick_candidates ~arch ())
            in
            let engine = Tuner.Measure.create ~app_name:("matmul-" ^ arch.Gpu.Arch.name) () in
            let ok =
              List.filter_map
                (fun ((c : Tuner.Candidate.t), o) ->
                  match o with
                  | Ok t -> Some { Tuner.Measure.cand = c; time_s = t }
                  | Error _ -> None)
                (Tuner.Measure.measure_outcomes ~jobs:2 engine cands)
            in
            let best =
              Option.get (Util.Stats.argmin (fun (m : Tuner.Measure.measured) -> m.time_s) ok)
            in
            let o =
              R.run ~jobs:2 ~engine
                ~app_name:("matmul-" ^ arch.Gpu.Arch.name)
                (R.spec ~reduced:cands ()) cands
            in
            check_b (arch.Gpu.Arch.name ^ " recovered") true (R.recovered o ~best))
          Gpu.Arch.archs);
  ]

(* Random subspaces: prune over a seeded random slice of each app's
   smoke space must never return a worse time than sweeping that same
   slice exhaustively. *)
let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:6 ~name:"pruned subspace never worse than exhaustive (all apps)"
        QCheck.(pair (int_bound 1_000_000) (int_range 6 18))
        (fun (seed, k) ->
          List.for_all
            (fun name ->
              let cands, _ = space name in
              let sub = R.sample ~seed k cands in
              let best = exhaustive_best ~jobs:2 name sub in
              let o = self_race name sub in
              o.R.pr_winner.Tuner.Measure.time_s <= best.Tuner.Measure.time_s +. 1e-15)
            [ "matmul"; "cp"; "sad"; "mri" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Superoptimized spaces and cancellation plumbing                     *)
(* ------------------------------------------------------------------ *)

(* One discovery run shared by both apps: the rule database is a pure
   function of the arch, not of the space it is applied to. *)
let superopt_rules =
  lazy (Tuner.Superopt.discover ~jobs:2 ~max_len:1 ~sweep:64 ()).Tuner.Superopt.rules

let result_key (r : Tuner.Search.result) =
  ( r.Tuner.Search.best.Tuner.Measure.cand.desc,
    r.Tuner.Search.best.Tuner.Measure.time_s,
    List.map
      (fun (m : Tuner.Measure.measured) -> (m.Tuner.Measure.cand.desc, m.Tuner.Measure.time_s))
      r.Tuner.Search.exhaustive,
    Option.map outcome_key r.Tuner.Search.prune )

let hardened_tests =
  [
    t "superoptimized spaces: race under a 10% budget recovers the optimum (matmul, cp)"
      (fun () ->
        (* The deadline/cancellation rework sits under [Search.run]; this
           pins that a budgeted model race over spaces rewritten by the
           verified peephole pass still lands on the exhaustive optimum. *)
        let rules = Lazy.force superopt_rules in
        List.iter
          (fun name ->
            let cands =
              List.filter
                (fun (c : Tuner.Candidate.t) -> c.valid)
                ((entry name).quick_candidates
                   ~extra_ptx:[ Tuner.Pipeline.peephole rules ]
                   ())
            in
            let r =
              Tuner.Search.run ~jobs:2
                ~predict:(R.spec ~budget_frac:0.10 ~rules ~reduced:cands ())
                ~app_name:name cands
            in
            let o = Option.get r.Tuner.Search.prune in
            check_b (name ^ ": optimum recovered under rules + 10% budget") true
              (R.recovered o ~best:r.Tuner.Search.best))
          [ "matmul"; "cp" ]);
    t "a never-tripping cancel token is invisible (jobs 1 vs 4 bit-identical)" (fun () ->
        let run jobs cancel =
          let cands, _ = space "matmul" in
          Tuner.Search.run ~jobs ?cancel
            ~predict:(R.spec ~reduced:cands ())
            ~app_name:"matmul" cands
        in
        let with_token = run 1 (Some (Tuner.Cancel.create ())) in
        let without = run 4 None in
        check_b "identical results with and without a token, any jobs" true
          (result_key with_token = result_key without));
  ]

let suite = [ ("tuner.predict", predict_tests @ prune_tests @ qcheck_tests @ hardened_tests) ]
