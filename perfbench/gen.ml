(* Seeded input generator.  Everything a workload sends to the tuner is
   drawn here from the run's seed, so the same seed gives the same
   inputs and the program under test receives only the generated
   inputs, never the seed itself.

   The cold workloads search a fixed basket of (app, arch) pairs in a
   seeded order, pass after pass.  The basket is fixed so that every
   seed does the same work and the figures of two seeds compare; the
   seed decides the order in which the tuner meets the pairs.  In the
   same way the warm workload sends, per client connection, the same
   request mix in a seeded order (see [client_stream]). *)

type pair = { app : string; arch : string }

let pair_name p = p.app ^ "/" ^ p.arch

let all_pairs =
  List.concat_map
    (fun app -> List.map (fun arch -> { app; arch }) Gpu.Arch.names)
    Apps.Registry.names

(* The Table 4 experiment on CP, on the paper's machine and on the
   soft-core model.  CP's bench-scale searches are the shortest (about
   2.5 s and 1 s at one job), so a run holds several passes and its
   medians ride out the host's passing slow spells.  The paper's claim
   holds for both at bench scale (the Pareto subset keeps the optimum),
   so the output check can pass; on matmul/fpga_soft, cp/wide32 and
   sad/wide32 the G80-derived metrics miss the optimum, which is a
   modelling result, not an error. *)
let explore_basket = [ { app = "cp"; arch = "g80" }; { app = "cp"; arch = "fpga_soft" } ]

(* The paper-scale methodology, sized so that three passes fit a run.  SAD,
   whose cost is mostly compiling, appears on two machine models: its
   kernels do not depend on the model, so that repeated compile work
   is in the pass.  Together the two baskets cover every app. *)
let tune_basket =
  [
    { app = "sad"; arch = "g80" };
    { app = "sad"; arch = "fpga_soft" };
    { app = "mri"; arch = "fpga_soft" };
    { app = "matmul"; arch = "fpga_soft" };
  ]

(* splitmix64 seeding: nearby seeds give unrelated streams. *)
let rng ~seed ~stream = Util.Rng.create (Hashtbl.hash (seed, stream))

let shuffle rng (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The order in which pass [pass] visits [basket]. *)
let pass_order ~seed ~pass (basket : pair list) : pair list =
  shuffle (rng ~seed ~stream:("pass", pass)) basket

(* The first [n] pairs the cold stream visits, across passes. *)
let cold_stream ~seed ~n (basket : pair list) : pair list =
  let rec go pass acc =
    if List.length acc >= n then List.filteri (fun i _ -> i < n) acc
    else go (pass + 1) (acc @ pass_order ~seed ~pass basket)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Warm request stream                                                 *)
(* ------------------------------------------------------------------ *)

type kind = Explore | Tune | Predict | Ping

let kind_name = function
  | Explore -> "explore"
  | Tune -> "tune"
  | Predict -> "predict-explore"
  | Ping -> "ping"

type request = { kind : kind; space : pair }

(* The mix, in 64ths, follows the repository's serve exhibit (the
   mixed phase of `bench/main.exe serve`), which sends 39 explores, 16
   tunes, 4 pings, 4 stats and 1 chaos explore in every 64 requests.
   Stats and chaos are left out: a stats reply changes with every
   request served, so it has no fixed ground truth, and a chaos sweep
   runs the simulator, which the timed phase must not.  Their five
   slots go to predict-explore, which the exhibit does not send.  That
   share is an assumption, not a record of real traffic; the report
   gives each kind's request count and median latency, so that a claim
   need not rest on it. *)
let mix = [ (Explore, 39); (Tune, 16); (Predict, 5); (Ping, 4) ]

let to_proto (r : request) : Tuner.Proto.request =
  let app = r.space.app and arch = Some r.space.arch and scale = Tuner.Proto.Quick in
  match r.kind with
  | Ping -> Tuner.Proto.Ping
  | Tune -> Tuner.Proto.Tune { app; scale; arch; deadline_ms = None }
  | Explore | Predict ->
    Tuner.Proto.Explore
      { app; scale; chaos = None; arch; predict = r.kind = Predict; deadline_ms = None }

(* An endless request source for one client connection over [spaces]:
   shuffled decks, each holding every (kind, space) pair as often as
   the mix weights it.  A predict-explore on the heaviest space costs
   over thirty times one on the lightest, so independent draws would
   let the seed move the figures; with decks every run sends the same
   mix, but for the deck in progress when time is up (a run sends about
   seven decks per client), and the seed decides only the order. *)
let client_stream ~seed ~client (spaces : pair list) : unit -> request =
  let g = rng ~seed ~stream:("client", client) in
  let deck =
    List.concat_map
      (fun (kind, w) -> List.concat_map (fun space -> List.init w (fun _ -> { kind; space })) spaces)
      mix
  in
  let pending = ref [] in
  fun () ->
    if !pending = [] then pending := shuffle g deck;
    match !pending with
    | r :: tl ->
      pending := tl;
      r
    | [] -> invalid_arg "Gen.client_stream: no spaces"

let take n (next : unit -> 'a) : 'a list =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (next () :: acc) in
  go 0 []
