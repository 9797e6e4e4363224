(* Fixed-size work-stealing domain pool.

   Measurement of a candidate configuration is by far the most
   expensive step of the tuner (it drives the cycle-approximate
   simulator), and measurements are independent of each other, so they
   parallelize across OCaml 5 domains.  The pool owns [jobs] worker
   domains pulling tasks from a shared mutex/condition-protected queue;
   [map] is the bulk operation the tuner uses. *)

type t

(* Spawn a pool of [jobs] worker domains ([jobs >= 1]). *)
val create : jobs:int -> t

(* Number of worker domains. *)
val size : t -> int

(* Enqueue a task.  An exception escaping a task is swallowed by the
   worker loop — the worker survives and takes the next task ([map] and
   [map_result] wrap user functions, so results are never lost this
   way).  Raises [Invalid_argument] after [shutdown]. *)
val submit : t -> (unit -> unit) -> unit

(* Stop the workers and join them.  Safe in every queue/worker state:

   - with workers idle on an empty queue (the common case), the
     broadcast wakes them out of [Condition.wait] and each exits;
   - with tasks still queued, workers drain the queue first — [stop]
     only ends a worker once it finds the queue empty;
   - after a task raised mid-queue, the worker that ran it is still
     alive (task exceptions never escape the worker loop), so the join
     cannot hang on a dead domain.

   Idempotent: a second [shutdown] joins an empty worker list. *)
val shutdown : t -> unit

(* The runtime's domain limit, the main domain included ([Max_domains]
   in OCaml 5.1's caml/domain.h on 64-bit hosts): spawning one more
   fails. *)
val max_domains : int

(* The most workers one pool may have: [max_domains] less the main
   domain.  A one-shot command runs one pool; the daemon's connection
   workers may each run one, so [gpuopt serve] bounds their product
   itself. *)
val max_jobs : int

(* Worker count used when [?jobs] is omitted: the [GPUOPT_JOBS]
   environment variable if set to an integer in 1..[max_jobs],
   otherwise [Domain.recommended_domain_count () - 1], kept in the
   same range. *)
val default_jobs : unit -> int

(* [map ~jobs f xs] is [List.map f xs] computed by [jobs] worker
   domains.  Guarantees:

   - the result preserves input order;
   - [jobs:1] (or a singleton/empty list) does not spawn any domain and
     is literally [List.map f xs], so single-core behavior is
     bit-identical to the sequential code;
   - if any application of [f] raises, the first exception in input
     order is re-raised in the caller after all tasks settle;
   - [jobs] larger than the list length spawns only as many workers as
     there are elements. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(* Crash-isolated [map]: each item resolves to [Ok (f x)] or, if that
   application raised, [Error (exn, backtrace)] — the backtrace string
   is whatever [Printexc.get_backtrace] captured at the raise site
   (empty unless backtrace recording is on).  One crashing thunk costs
   exactly its own slot: every other item still completes, order is
   preserved, and the pool shuts down cleanly.  This is the primitive
   the tuner's fault-tolerant measurement engine builds on. *)
val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn * string) result list
