(* Parallel map over OCaml 5 domains.

   Measurement of a candidate configuration is by far the most
   expensive step of the tuner (it drives the cycle-approximate
   simulator), and measurements are independent of each other, so they
   parallelize across domains.  Each call to [map] or [map_result]
   spawns at most [min jobs n] domains for its [n] items; they claim
   items from one atomic cursor and are all joined before the call
   returns, so no domain outlives the call. *)

(* The runtime's domain limit, the main domain included ([Max_domains]
   in OCaml 5.1's caml/domain.h on 64-bit hosts): spawning one more
   fails. *)
val max_domains : int

(* The most domains one call may spawn: [max_domains] less the main
   domain.  A one-shot command runs one call at a time; the daemon's
   connection workers may each run one, so [gpuopt serve] bounds their
   product itself. *)
val max_jobs : int

(* Worker count used when [?jobs] is omitted: the [GPUOPT_JOBS]
   environment variable if set to an integer in 1..[max_jobs],
   otherwise [Domain.recommended_domain_count () - 1], kept in the
   same range. *)
val default_jobs : unit -> int

(* [map ~jobs f xs] is [List.map f xs] computed by up to [jobs]
   domains.  Guarantees:

   - the result preserves input order;
   - [jobs:1] (or a singleton/empty list) does not spawn any domain and
     is literally [List.map f xs], so single-core behavior is
     bit-identical to the sequential code;
   - if any application of [f] raises, the first exception in input
     order is re-raised in the caller after every item has run;
   - [jobs] larger than the list length spawns only as many domains as
     there are elements. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(* Crash-isolated [map]: each item resolves to [Ok (f x)] or, if that
   application raised, [Error (exn, backtrace)] — the backtrace string
   is whatever [Printexc.get_backtrace] captured at the raise site
   (empty unless backtrace recording is on).  One crashing thunk costs
   exactly its own slot: every other item still runs once, in its own
   slot, and order is preserved.  This is the primitive the tuner's
   fault-tolerant measurement engine builds on. *)
val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn * string) result list
