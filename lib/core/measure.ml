(* Measurement engine: the expensive step of the paper's methodology,
   made parallel, memoized, fault-tolerant and persistent.

   Measuring a configuration means driving the cycle-approximate SM
   simulator through the candidate's [run] thunk — exactly the cost the
   pruning methodology exists to avoid paying for the whole space.  The
   engine adds four things on top of calling the thunk directly:

   - a per-application memoizing cache keyed by the candidate's [desc],
     so any candidate is simulated at most once per engine no matter
     how many passes (exhaustive sweep, Pareto subset, reports) ask for
     its time;
   - parallel bulk measurement over [Util.Pool] domains, reported as
     one [stats] record (simulator runs, cache and store traffic,
     summed host wall time);
   - crash isolation: a thunk that throws (pass bug, launch rejection,
     simulator trap, watchdog abort) is recorded in the cache as a
     [Fault.t] — measured-as-failed exactly once, so retries are
     deterministic and one bad candidate cannot poison the sweep;
   - an optional content-addressed result store ([Store]): before
     paying for the simulator, the engine asks the store for the
     candidate's key, and every outcome it does pay for is written
     back as it lands — so across engines, processes and serving
     sessions, no (kernel x space x arch) point is ever measured twice,
     and an interrupted sweep resumes by re-running against the store.

   Determinism: simulated times depend only on the candidate itself
   (each [run] thunk operates on private state — see the domain-safety
   audit in DESIGN.md), and [Pool.map_result] preserves input order, so
   the results are identical whatever [jobs] is. *)

type measured = { cand : Candidate.t; time_s : float }

(* What one measurement settled to: the simulated seconds, or the
   classified fault that ended it. *)
type outcome = (float, Fault.t) result

(* A shared result store bound to this engine: where to look before
   running the simulator, and how to derive a candidate's
   content-addressed key. *)
type store_binding = { sb_store : Store.t; sb_key : Candidate.t -> string }

(* What one engine did, or several summed ([sum]): the one counter
   record behind a search's engine report, a race's reduced-shape work
   and the daemon's totals. *)
type stats = {
  measure_runs : int;  (* simulator invocations actually performed *)
  measure_hits : int;  (* measurements answered from the cache *)
  measure_host_s : float;
      (* summed host seconds inside [run] thunks: under parallel
         measurement, the per-worker sum, which can exceed elapsed time *)
  store_hits : int;  (* cache hits answered by the result store *)
  store_misses : int;  (* store consulted, simulator paid anyway *)
}

let zero =
  { measure_runs = 0; measure_hits = 0; measure_host_s = 0.0; store_hits = 0; store_misses = 0 }

let sum (ss : stats list) : stats =
  List.fold_left
    (fun a s ->
      {
        measure_runs = a.measure_runs + s.measure_runs;
        measure_hits = a.measure_hits + s.measure_hits;
        measure_host_s = a.measure_host_s +. s.measure_host_s;
        store_hits = a.store_hits + s.store_hits;
        store_misses = a.store_misses + s.store_misses;
      })
    zero ss

(* The counters are fields of their own, not a [stats] value replaced
   on each count: a warm request counts a hit per candidate, and
   counting must not allocate. *)
type t = {
  app_name : string;
  lock : Mutex.t;  (* guards every field below *)
  cache : (string, outcome) Hashtbl.t;  (* desc -> settled outcome *)
  mutable runs : int;
  mutable hits : int;
  mutable host_s : float;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable store : store_binding option;
}

let create ~app_name () =
  {
    app_name;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    runs = 0;
    hits = 0;
    host_s = 0.0;
    store_hits = 0;
    store_misses = 0;
    store = None;
  }

(* A snapshot of the engine's counters. *)
let stats t : stats =
  Mutex.protect t.lock (fun () ->
      {
        measure_runs = t.runs;
        measure_hits = t.hits;
        measure_host_s = t.host_s;
        store_hits = t.store_hits;
        store_misses = t.store_misses;
      })

(* Bind a content-addressed result store.  [key] derives a candidate's
   store key (see [Store.candidate_key]); the caller fixes the arch and
   space digests so the engine never recomputes them per candidate. *)
let attach_store t ~(store : Store.t) ~(key : Candidate.t -> string) : unit =
  Mutex.protect t.lock (fun () ->
      if t.store <> None then invalid_arg "Measure.attach_store: store already attached";
      t.store <- Some { sb_store = store; sb_key = key })

(* ------------------------------------------------------------------ *)
(* Cache lookups                                                       *)
(* ------------------------------------------------------------------ *)

(* Settled outcome of an already-measured candidate.  The cache is the
   single source of truth: asking for a candidate that was never passed
   through [measure_outcomes] is a caller bug (it would otherwise
   silently re-run the simulator and double-count evaluation time), so
   a miss raises — naming the app and the candidate's config key, since
   an anonymous failure is useless in a parallel sweep log. *)
let find_exn t (c : Candidate.t) : outcome =
  match Hashtbl.find_opt t.cache c.desc with
  | Some o -> o
  | None ->
    invalid_arg
      (Printf.sprintf "Measure.time_exn: %s: candidate %S was never measured" t.app_name c.desc)

let outcome_exn t (c : Candidate.t) : outcome =
  Mutex.protect t.lock (fun () ->
      let o = find_exn t c in
      t.hits <- t.hits + 1;
      o)

(* Cached simulated seconds of a successfully measured candidate; a
   candidate that was measured-as-failed raises with its fault. *)
let time_exn t (c : Candidate.t) : float =
  match outcome_exn t c with
  | Ok ts -> ts
  | Error f ->
    invalid_arg
      (Printf.sprintf "Measure.time_exn: %s: candidate %S faulted: %s" t.app_name c.desc
         (Fault.to_string f))

(* ------------------------------------------------------------------ *)
(* Bulk measurement                                                    *)
(* ------------------------------------------------------------------ *)

(* Record one settled outcome under the lock: cache, bookkeeping and
   the result store (when attached).  [store_key] is the candidate's
   content address, computed once when the batch was filtered. *)
let record t desc ?(store_key : string option) (o : outcome) (host_s : float) : unit =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.cache desc o;
      t.runs <- t.runs + 1;
      t.host_s <- t.host_s +. host_s;
      match (t.store, store_key) with
      | Some sb, Some key -> Store.put sb.sb_store ~key ~desc o
      | _ -> ())

(* Measure every candidate of [cands], in parallel over [jobs] domains
   (default [Pool.default_jobs ()]), skipping those already settled in
   the cache or the attached store (faults included).  Returns one
   (candidate, outcome) pair per input, in input order.

   [?cancel] is a cooperative cancellation token checked between
   candidates, and the only way to stop a sweep partway: once it trips,
   remaining thunks skip the simulator, and if any requested outcome is
   still unsettled the sweep aborts with [Cancel.Cancelled].  Outcomes
   settled before the trip stay cached and stored, so a rerun against
   the same store resumes from them; and already settled outcomes still
   answer, so an expired deadline over warm data completes instead of
   failing. *)
let measure_outcomes ?jobs ?cancel t (cands : Candidate.t list) : (Candidate.t * outcome) list =
  (* Decide what actually needs the simulator before spawning workers;
     duplicates within one batch collapse to a single run, and the
     result store (when attached) settles candidates any client has
     ever measured without touching the simulator.  [batch] maps each
     miss to its store key, so each candidate's PTX is digested once;
     it is read-only once the workers start. *)
  let store_binding = Mutex.protect t.lock (fun () -> t.store) in
  let batch = Hashtbl.create 16 in
  let to_run =
    Mutex.protect t.lock (fun () ->
        List.filter
          (fun (c : Candidate.t) ->
            if Hashtbl.mem t.cache c.desc || Hashtbl.mem batch c.desc then begin
              t.hits <- t.hits + 1;
              false
            end
            else
              let keyed = Option.map (fun sb -> (sb.sb_store, sb.sb_key c)) store_binding in
              match Option.bind keyed (fun (st, key) -> Store.get st key) with
              | Some o ->
                Hashtbl.replace t.cache c.desc o;
                t.hits <- t.hits + 1;
                t.store_hits <- t.store_hits + 1;
                false
              | None ->
                if store_binding <> None then t.store_misses <- t.store_misses + 1;
                Hashtbl.replace batch c.desc (Option.map snd keyed);
                true)
          cands)
  in
  let cancelled () =
    match cancel with Some cl -> Cancel.cancelled cl | None -> false
  in
  let results =
    Util.Pool.map_result ?jobs
      (fun (c : Candidate.t) ->
        (* Once the caller's cancellation token tripped, remaining
           thunks skip the simulator: their outcomes are unwanted. *)
        if not (cancelled ()) then begin
          let t0 = Unix.gettimeofday () in
          let o = Fault.run_candidate c in
          record t c.desc ?store_key:(Hashtbl.find batch c.desc) o (Unix.gettimeofday () -. t0)
        end)
      to_run
  in
  (* [Fault.run_candidate] classifies everything a thunk can raise, so
     an [Error] here means the engine itself failed (store I/O, a
     corrupt cache): that is not a per-candidate fault — re-raise. *)
  List.iter (function Error (e, _) -> raise e | Ok () -> ()) results;
  (* A tripped token with outstanding work is a typed abort; with every
     outcome already settled it is a no-op (warm answers are free). *)
  if
    cancelled ()
    && Mutex.protect t.lock (fun () ->
           List.exists (fun (c : Candidate.t) -> not (Hashtbl.mem t.cache c.desc)) cands)
  then raise Cancel.Cancelled;
  Mutex.protect t.lock (fun () ->
      (* Re-read through the cache (not the worker results) so
         duplicates and previously settled candidates resolve
         uniformly. *)
      List.map (fun (c : Candidate.t) -> (c, find_exn t c)) cands)
