(* Per-call parallel map over OCaml 5 domains.

   Each call spawns its own domains, which claim input indices from one
   atomic cursor: a domain that drew cheap items simply claims more, so
   load balances itself whatever the per-item cost distribution — the
   property that matters for the tuner, where simulated measurement
   time varies by an order of magnitude across configurations.  Every
   result lands in the slot of its input index, and the caller reads
   the slots only after joining every domain. *)

let max_domains = 128
let max_jobs = max_domains - 1

let default_jobs () =
  let recommended = min max_jobs (max 1 (Domain.recommended_domain_count () - 1)) in
  match Sys.getenv_opt "GPUOPT_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 && j <= max_jobs -> j
    | _ -> recommended)
  | None -> recommended

let resolve_jobs ~fn = function
  | None -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some _ -> invalid_arg (fn ^ ": jobs must be >= 1")

(* Apply [f] once per item, capturing any escaping exception (with its
   backtrace, when recording is on) as that item's [Error] instead of
   letting it end a domain or abort the batch: one crashing thunk costs
   exactly its own slot. *)
let map_result ?jobs (f : 'a -> 'b) (xs : 'a list) : ('b, exn * string) result list =
  let jobs = resolve_jobs ~fn:"Pool.map_result" jobs in
  let wrap x =
    try Ok (f x)
    with e ->
      let bt = Printexc.get_backtrace () in
      Error (e, bt)
  in
  let n = List.length xs in
  if jobs = 1 || n <= 1 then List.map wrap xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        out.(i) <- Some (wrap input.(i));
        work ()
      end
    in
    List.iter Domain.join (List.init (min jobs n) (fun _ -> Domain.spawn work));
    Array.to_list (Array.map Option.get out)
  end

let map ?jobs f xs =
  let jobs = resolve_jobs ~fn:"Pool.map" jobs in
  if jobs = 1 || List.length xs <= 1 then List.map f xs
  else
    (* [List.map] unwraps in input order, so the first failure in input
       order is the one re-raised, whatever order the domains ran in. *)
    List.map (function Ok v -> v | Error (e, _) -> raise e) (map_result ~jobs f xs)
