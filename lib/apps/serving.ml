(* The registry-backed resolver for the tuning service.

   [Tuner.Serve] deliberately knows nothing about concrete
   applications; this module closes the loop, mapping the wire
   protocol's (app, scale) names onto [Registry] entries.  Everything a
   request needs repeatedly is memoized here, once per process:

   - the candidate list for each (app, scale) — building candidates
     compiles the whole space, which must happen once, not per request;
   - the content address of every candidate in the space — the store
     key digests rendered PTX, and re-rendering it on each of thousands
     of warm requests would dwarf the actual lookup.

   A space is compiled outside the table's lock, so one cold space never
   stalls requests for the others; under the lock the first insert for
   a key wins.  Compiling is deterministic, so two requests that race
   on one cold space cost only CPU.  An entry is read-only once
   inserted, so connection-worker domains share it freely.  The one
   lazy field, [sp_reduced], is forced by [Serve] under its own lock. *)

let scale_candidates (e : Registry.entry) ~(arch : Gpu.Arch.t) (scale : Tuner.Proto.scale) :
    Tuner.Candidate.t list =
  match scale with
  | Tuner.Proto.Quick -> e.quick_candidates ~arch ()
  | Tuner.Proto.Bench -> e.bench_candidates ~arch ()
  | Tuner.Proto.Full -> e.candidates ~arch ()

let unknown_app app =
  ( Tuner.Proto.Unknown_app,
    Printf.sprintf "unknown app %S (expected %s)" app (String.concat "|" Registry.names) )

let unknown_arch arch =
  ( Tuner.Proto.Bad_request,
    Printf.sprintf "unknown arch %S (expected %s)" arch
      (String.concat "|" Gpu.Arch.names) )

(* [e]'s space at [scale] on [arch], compiled, with its store keys. *)
let resolve_space (e : Registry.entry) ~(arch : Gpu.Arch.t) (scale : Tuner.Proto.scale) :
    Tuner.Serve.resolved_space =
  let cands = scale_candidates e ~arch scale in
  (* The same digests as the direct [Search.bind_store] path, so served
     and direct sweeps share warm store entries. *)
  let arch_d, space =
    Tuner.Store.space_digests ~app_name:e.name ~scale:(Tuner.Proto.scale_name scale) cands
  in
  let keys = Hashtbl.create (List.length cands) in
  List.iter
    (fun (c : Tuner.Candidate.t) ->
      Hashtbl.replace keys c.desc (Tuner.Store.candidate_key ~arch:arch_d ~space c))
    cands;
  let sp_store_key (c : Tuner.Candidate.t) =
    match Hashtbl.find_opt keys c.desc with
    | Some k -> k
    | None -> Tuner.Store.candidate_key ~arch:arch_d ~space c
  in
  (* The reduced race space is the registry's reduced builder on the
     same arch — each app's shared [reduced] shape, so served
     predict-explores race exactly what the CLI and the lint workbenches
     use.  A quick space already is a reduced shape, so it races against
     itself: [lazy cands] is the very list the sweep measures, each twin
     is the candidate record itself, and [Prune.run] reads its race time
     from the sweep's engine instead of re-keying it.  A bench or full
     space's list compiles on first use; [Serve] forces it under a lock,
     because connection workers on other domains share it. *)
  let sp_reduced =
    match scale with
    | Tuner.Proto.Quick -> lazy cands
    | Tuner.Proto.Bench | Tuner.Proto.Full -> lazy (e.reduced_candidates ~arch ())
  in
  { Tuner.Serve.sp_cands = cands; sp_store_key; sp_reduced }

let resolver () : Tuner.Serve.resolver =
  let cache : (string, Tuner.Serve.resolved_space) Hashtbl.t = Hashtbl.create 16 in
  let cache_lock = Mutex.create () in
  let rv_space ~app ~scale ~arch:arch_name =
    match (Registry.find app, Gpu.Arch.find arch_name) with
    | None, _ -> Error (unknown_app app)
    | _, None -> Error (unknown_arch arch_name)
    | Some e, Some arch -> (
      let memo_key = app ^ "/" ^ Tuner.Proto.scale_name scale ^ "/" ^ arch_name in
      match Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache memo_key) with
      | Some sp -> Ok sp
      | None ->
        let sp = resolve_space e ~arch scale in
        Ok
          (Mutex.protect cache_lock (fun () ->
               match Hashtbl.find_opt cache memo_key with
               | Some first -> first
               | None ->
                 Hashtbl.replace cache memo_key sp;
                 sp)))
  in
  let rv_lint ~app ~config =
    match Registry.find app with
    | None -> Error (unknown_app app)
    | Some e -> (
      match e.workbench ?config () with
      | Error msg -> Error (Tuner.Proto.Bad_request, msg)
      | Ok wb ->
        let report = Workbench.lint wb in
        Ok (Analysis.Lint.render report, Analysis.Lint.has_errors report))
  in
  { Tuner.Serve.rv_apps = Registry.names; rv_space; rv_lint }
