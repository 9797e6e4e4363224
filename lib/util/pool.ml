(* Fixed-size domain pool over a shared work queue.

   Workers steal the next task from a single queue under a mutex, so
   load balances itself whatever the per-task cost distribution — the
   property that matters for the tuner, where simulated measurement
   time varies by an order of magnitude across configurations. *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled on submit and on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;  (* set once by [create]; workers never read it *)
}

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stop do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stopping *)
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    (try task () with _ -> ());
    worker_loop pool
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  pool.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = List.length pool.workers

let submit pool task =
  Mutex.lock pool.mutex;
  if pool.stop then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task pool.queue;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mutex

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers

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

(* Apply [f] once per item, capturing any escaping exception (with its
   backtrace, when recording is on) as that item's [Error] instead of
   letting it poison the pool or abort the batch: one crashing thunk
   costs exactly its own slot.  Workers and the queue always drain, so
   the pool shuts down cleanly whatever the failure pattern. *)
let map_result ?jobs (f : 'a -> 'b) (xs : 'a list) : ('b, exn * string) result list =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map_result: jobs must be >= 1";
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
    let remaining = ref n in
    let all_done = Condition.create () in
    let done_mutex = Mutex.create () in
    let pool = create ~jobs:(min jobs n) in
    Array.iteri
      (fun i x ->
        submit pool (fun () ->
            out.(i) <- Some (wrap x);
            Mutex.lock done_mutex;
            decr remaining;
            if !remaining = 0 then Condition.signal all_done;
            Mutex.unlock done_mutex))
      input;
    Mutex.lock done_mutex;
    while !remaining > 0 do
      Condition.wait all_done done_mutex
    done;
    Mutex.unlock done_mutex;
    shutdown pool;
    Array.to_list (Array.map (function Some r -> r | None -> assert false) out)
  end

let map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  if jobs = 1 || List.length xs <= 1 then List.map f xs
  else begin
    let results = map_result ~jobs f xs in
    (* Re-raise the first failure in input order, deterministically. *)
    List.iter (function Error (e, _) -> raise e | Ok _ -> ()) results;
    List.map (function Ok v -> v | Error _ -> assert false) results
  end
