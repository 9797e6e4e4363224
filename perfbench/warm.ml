(* The warm workload: a [Tuner.Serve] daemon on a Unix socket, in this
   process, answering a seeded closed-loop request mix from two client
   connections.

   Set-up opens a fresh store, starts the daemon, and sends every
   distinct request of the mix (explore, predict-explore and tune on
   the twelve quick-scale spaces) twice: the first compiles the space
   and fills the store, the second is warm and its reply bytes become
   the ground truth every timed reply is compared against.  In the
   timed phase the simulator and the pipeline do no work; the wire,
   [Proto], [Serve], store reads, [Metrics], [Pareto], [Search]
   bookkeeping and the warm [Predict] refit do all of it.

   Traced, the same requests are then replayed in process: [Proto]
   encode and decode and [Serve.handle] under spans, and the layers
   inside [handle] by replay ([Search.run]/[tune_full], [Metrics],
   [Pareto], [Store.get], [Prune.run]). *)

open Report
module P = Tuner.Proto
module Srv = Tuner.Serve

type env = { jobs : int; dir : string; acc : acc; tally : tally }

let now = Unix.gettimeofday
let kinds = [ Gen.Explore; Gen.Predict; Gen.Tune ]

type sent = {
  s_req : Gen.request;
  s_send : float;  (* seconds since the round began *)
  s_latency : float;
  s_bytes : int;  (* reply payload *)
}

type server = {
  srv : Srv.t;
  store : Tuner.Store.t;
  store_file : string;
  socket : string;
  daemon : unit Domain.t;
  compiled : int Atomic.t;  (* configurations the resolver compiled *)
  spaces : Gen.pair list;  (* the quick-scale spaces the mix draws from *)
  truth : (Gen.kind * string * string, string) Hashtbl.t;  (* warm reply bytes *)
  sizes : (Gen.kind * string * string, int) Hashtbl.t;  (* configurations per reply *)
}

(* The daemon's resolver, wrapped so the benchmark sees each first
   request for a space: that call compiles the space (the registry
   resolver memoizes it), so it is timed as pipeline work. *)
let resolver env (compiled : int Atomic.t) : Srv.resolver =
  let inner = Apps.Serving.resolver () in
  let seen = Hashtbl.create 16 and lock = Mutex.create () in
  let rv_space ~app ~scale ~arch =
    let first =
      Mutex.protect lock (fun () ->
          let k = (app, P.scale_name scale, arch) in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end)
    in
    if not first then inner.rv_space ~app ~scale ~arch
    else begin
      let t0 = now () in
      let r = inner.rv_space ~app ~scale ~arch in
      let dt = now () -. t0 in
      (match r with
      | Ok sp ->
        ignore (Atomic.fetch_and_add compiled (List.length sp.sp_cands) : int);
        Mutex.protect lock (fun () -> add env.acc "pipeline.s" dt)
      | Error _ -> ());
      r
    end
  in
  { inner with rv_space }

let request_bytes (r : Gen.request) = P.encode_request (Gen.to_proto r)

(* Send one request and read its reply payload. *)
let exchange fd (payload : string) : (string, string) result =
  match Srv.send_frame fd payload with
  | () -> Srv.read_frame fd
  | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)

let space_size = function
  | Ok (P.Explore_r x) -> x.x_space_size
  | Ok (P.Tune_r t) -> t.t_space_size
  | _ -> 0

(* Cold and warm replies agree on everything but the run and hit
   counters, which say where the answer came from. *)
let normalise = function
  | P.Explore_r x -> P.Explore_r { x with x_runs = 0; x_store_hits = 0 }
  | P.Tune_r t -> P.Tune_r { t with t_runs = 0; t_store_hits = 0 }
  | r -> r

let warm_runs = function
  | P.Explore_r x -> x.x_runs
  | P.Tune_r t -> t.t_runs
  | _ -> -1

let start env ~seed ?(spaces = Gen.all_pairs) () : server =
  let store_file = Filename.concat env.dir (Printf.sprintf "warm-%d.store" (Unix.getpid ())) in
  let socket = Filename.concat env.dir (Printf.sprintf "warm-%d.sock" (Unix.getpid ())) in
  (try Sys.remove store_file with Sys_error _ -> ());
  let t0 = now () in
  let store = Tuner.Store.open_ ~file:store_file () in
  add env.acc "store.open_s" (now () -. t0);
  let compiled = Atomic.make 0 in
  let srv = Srv.create ~jobs:env.jobs ~store (resolver env compiled) in
  let daemon = Domain.spawn (fun () -> Srv.listen ~conn_workers:2 ~poll_s:0.05 srv ~socket ()) in
  if not (Srv.wait_ready ~socket ()) then failwith "perfbench: the daemon did not come up";
  let truth = Hashtbl.create 64 and sizes = Hashtbl.create 64 in
  let s = { srv; store; store_file; socket; daemon; compiled; spaces; truth; sizes } in
  let spaces = Gen.shuffle (Gen.rng ~seed ~stream:("setup", 0)) spaces in
  Srv.with_client ~socket (fun fd ->
      let ask (r : Gen.request) =
        match exchange fd (request_bytes r) with
        | Ok payload -> (payload, P.decode_response payload |> Result.map_error P.decode_error_to_string)
        | Error e -> ("", Error e)
      in
      List.iter
        (fun (space : Gen.pair) ->
          List.iter
            (fun kind ->
              let r = { Gen.kind; space } in
              let _, cold = ask r in
              let payload, warm = ask r in
              let key = (kind, space.app, space.arch) in
              Hashtbl.replace truth key payload;
              Hashtbl.replace sizes key (space_size warm);
              operation env.tally
                ("setup " ^ Gen.kind_name kind ^ " " ^ Gen.pair_name space)
                (match (cold, warm) with
                | Ok c, Ok w ->
                  [
                    (warm_runs w = 0, "the warm reply ran the simulator");
                    ( P.encode_response (normalise c) = P.encode_response (normalise w),
                      "the warm reply differs from the cold one" );
                    ( (match w with
                      | P.Explore_r x -> x.x_faults = []
                      | P.Tune_r _ -> true
                      | _ -> false),
                      "faulted candidates or an unexpected reply" );
                  ]
                | Error e, _ | _, Error e -> [ (false, e) ]))
            kinds)
        spaces;
      let payload, pong = ask { Gen.kind = Gen.Ping; space = List.hd spaces } in
      Hashtbl.replace truth (Gen.Ping, "", "") payload;
      operation env.tally "setup ping" [ (pong = Ok P.Pong, "no pong") ]);
  s

let truth_key (r : Gen.request) =
  match r.kind with Gen.Ping -> (Gen.Ping, "", "") | k -> (k, r.space.app, r.space.arch)

(* Requests the timed phase completes at least, so that ten samples
   lie above the p99. *)
let min_requests = 1100

(* The two client connections' request sources.  They last across the
   rounds of a timed phase, so that every round continues the seeded
   decks where the last one stopped. *)
let streams ~seed (s : server) : (unit -> Gen.request) array =
  Array.init 2 (fun client -> Gen.client_stream ~seed ~client s.spaces)

(* One client connection's closed loop until [deadline]. *)
let client (s : server) ~next ~t_start ~deadline : sent list * (string list * int) =
  let log = ref [] and bad = ref [] and overloaded = ref 0 in
  let fd = Srv.connect ~socket:s.socket in
  let broken = ref false in
  while (not !broken) && now () < deadline do
    let r = next () in
    let payload = request_bytes r in
    let expected = Hashtbl.find s.truth (truth_key r) in
    let t0 = now () in
    let reply = exchange fd payload in
    let t1 = now () in
    let bytes = match reply with Ok p -> String.length p | Error _ -> 0 in
    log := { s_req = r; s_send = t0 -. t_start; s_latency = t1 -. t0; s_bytes = bytes } :: !log;
    match reply with
    | Ok p when String.equal p expected -> ()
    | Ok p ->
      (match P.decode_response p with
      | Ok (P.Overloaded_r _) -> incr overloaded
      | _ -> ());
      bad := Printf.sprintf "%s %s: reply differs from the ground truth" (Gen.kind_name r.kind) (Gen.pair_name r.space) :: !bad
    | Error e ->
      (* A transport error fails the run; the connection is not reused. *)
      bad := (Gen.kind_name r.kind ^ ": " ^ e) :: !bad;
      broken := true
  done;
  Srv.close_quietly fd;
  (List.rev !log, (List.rev !bad, !overloaded))

let stop (s : server) : unit =
  (match Srv.call ~socket:s.socket P.Shutdown with _ -> ());
  Domain.join s.daemon

let close (s : server) : unit =
  Tuner.Store.close s.store;
  (try Sys.remove s.store_file with Sys_error _ -> ())

(* One round of the timed phase: two client connections for [seconds],
   each on its own thread of this domain (the clients mostly wait on the
   socket), drawing from [streams]. *)
let timed env (s : server) ~streams ~seconds : sent list * float =
  let stats0 = Srv.stats s.srv in
  let entries0 = Tuner.Store.entries s.store in
  let bytes0 = (Unix.stat s.store_file).Unix.st_size in
  let compiled0 = Atomic.get s.compiled in
  let launches0 = Gpu.Sim.sim_runs () and wi0 = Gpu.Sim.warp_instrs_issued () in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let results = Array.make 2 ([], ([], 0)) in
  let clients =
    List.init 2 (fun k ->
        Thread.create
          (fun () ->
            results.(k) <-
              (try client s ~next:streams.(k) ~t_start ~deadline
               with e -> ([], ([ "client: " ^ Printexc.to_string e ], 0))))
          ())
  in
  List.iter Thread.join clients;
  let results = Array.to_list results in
  let wall = now () -. t_start in
  let stats1 = Srv.stats s.srv in
  let sent =
    List.concat_map fst results |> List.sort (fun a b -> compare a.s_send b.s_send)
  in
  List.iter
    (fun (_, (bad, overloaded)) ->
      addi env.acc "serve.overloaded" overloaded;
      List.iter (fun m -> operation env.tally "request" [ (false, m) ]) bad)
    results;
  let n_bad = List.fold_left (fun a (_, (bad, _)) -> a + List.length bad) 0 results in
  for _ = 1 to List.length sent - n_bad do
    operation env.tally "request" []
  done;
  let runs = stats1.sv_runs - stats0.sv_runs in
  let compiled = Atomic.get s.compiled - compiled0 in
  addi env.acc "sim.runs" runs;
  addi env.acc "sim.launches" (Gpu.Sim.sim_runs () - launches0);
  addi env.acc "sim.warp_instrs" (Gpu.Sim.warp_instrs_issued () - wi0);
  addi env.acc "pipeline.configs" compiled;
  addi env.acc "serve.errors" (stats1.sv_errors - stats0.sv_errors);
  addi env.acc "store.hits" (stats1.sv_store_hits - stats0.sv_store_hits);
  addi env.acc "store.misses" (stats1.sv_store_misses - stats0.sv_store_misses);
  addi env.acc "store.appends" (Tuner.Store.entries s.store - entries0);
  addi env.acc "store.bytes" ((Unix.stat s.store_file).Unix.st_size - bytes0);
  addi env.acc "proto.reply_bytes" (List.fold_left (fun a x -> a + x.s_bytes) 0 sent);
  operation env.tally "timed phase"
    [
      (runs = 0, Printf.sprintf "the simulator ran %d time(s)" runs);
      (compiled = 0, Printf.sprintf "%d configuration(s) compiled" compiled);
    ];
  (sent, wall)

(* ------------------------------------------------------------------ *)
(* In-process replay (traced run)                                      *)
(* ------------------------------------------------------------------ *)

let resolved (s : server) (r : Gen.request) =
  match s.srv.resolver.rv_space ~app:r.space.app ~scale:P.Quick ~arch:r.space.arch with
  | Ok sp -> sp
  | Error (_, msg) -> failwith msg

(* The request's work without spans: the untraced reference for the
   tracing overhead. *)
let replay_plain (s : server) (r : Gen.request) : string =
  let req = Result.get_ok (P.decode_request (request_bytes r)) in
  let payload = P.encode_response (Srv.handle s.srv req) in
  ignore (P.decode_response payload : (P.response, P.decode_error) result);
  payload

let replay_traced env tr (s : server) ~req:(id : int) (r : Gen.request) : string * float =
  let proto what f =
    let t0 = now () in
    let y = Trace.span tr ~req:id "proto" f in
    add env.acc ("proto." ^ what ^ "_s") (now () -. t0);
    y
  in
  let bytes = proto "encode" (fun () -> request_bytes r) in
  let req = proto "decode" (fun () -> Result.get_ok (P.decode_request bytes)) in
  let t0 = now () in
  let resp, hid = Trace.span_id tr ~req:id "serve" (fun () -> Srv.handle s.srv req) in
  let handle_s = now () -. t0 in
  let payload = proto "encode" (fun () -> P.encode_response resp) in
  ignore (proto "decode" (fun () -> P.decode_response payload) : (P.response, P.decode_error) result);
  (match r.kind with
  | Gen.Ping -> ()
  | kind ->
    let sp = resolved s r in
    let app_name = r.space.app in
    let valid = List.filter (fun (c : Tuner.Candidate.t) -> c.valid) sp.sp_cands in
    let predict =
      if kind = Gen.Predict then Some (Tuner.Prune.spec ~reduced:(Lazy.force sp.sp_reduced) ()) else None
    in
    let (), search =
      Trace.replay tr ~req:id "search" (fun () ->
          match kind with
          | Gen.Tune ->
            ignore
              (Tuner.Search.tune_full ~jobs:1 ~store:s.store ~store_key:sp.sp_store_key ~app_name
                 sp.sp_cands
                : Tuner.Search.tuned)
          | _ ->
            ignore
              (Tuner.Search.run ~jobs:1 ?predict ~store:s.store ~store_key:sp.sp_store_key ~app_name
                 sp.sp_cands
                : Tuner.Search.result))
    in
    let ms, m =
      Trace.replay tr ~req:id "metrics" (fun () ->
          List.map (fun c -> (c, Tuner.Metrics.of_candidate c)) valid)
    in
    let sel, p =
      Trace.replay tr ~req:id "pareto" (fun () ->
          Tuner.Pareto.frontier_quantized
            (fun (_, (m : Tuner.Metrics.t)) -> (m.efficiency, m.utilization))
            ms)
    in
    let read = if kind = Gen.Tune then List.map fst sel else valid in
    let (), g =
      Trace.replay tr ~req:id "store" (fun () ->
          List.iter (fun c -> ignore (Tuner.Store.get s.store (sp.sp_store_key c) : _ option)) read)
    in
    let pr =
      match predict with
      | None -> 0.0
      | Some spec ->
        let o, pr =
          Trace.replay tr ~req:id "prune" (fun () ->
              let engine = Tuner.Measure.create ~app_name () in
              Tuner.Measure.attach_store engine ~store:s.store ~key:sp.sp_store_key;
              Tuner.Prune.run ~jobs:1 ~store:s.store ~store_scale:"quick" ~engine ~app_name spec
                valid)
        in
        addi env.acc "prune.probes" (List.length o.pr_probes);
        addi env.acc "prune.raced" o.pr_raced;
        addi env.acc "prune.simulated" o.pr_simulated;
        pr
    in
    Trace.attribute tr hid "search" (search -. m -. p -. g -. pr);
    Trace.attribute tr hid "metrics" m;
    Trace.attribute tr hid "pareto" p;
    Trace.attribute tr hid "store" g;
    Trace.attribute tr hid "prune" pr;
    add env.acc "metrics.s" m;
    addi env.acc "metrics.calls" (List.length valid);
    add env.acc "pareto.s" p;
    addi env.acc "pareto.selected" (List.length sel);
    add env.acc "store.get_s" g);
  (payload, handle_s)

(* Replay the first requests of the timed phase in process: untraced
   until a quarter of [seconds] is spent, then the same requests
   traced.  Returns (requests, untraced wall, traced wall). *)
let replay env tr (s : server) ~seconds (sent : sent list) : int * float * float =
  let budget = seconds /. 4.0 in
  let t0 = now () in
  let rec plain n = function
    | x :: tl when now () -. t0 < budget ->
      ignore (replay_plain s x.s_req : string);
      plain (n + 1) tl
    | _ -> n
  in
  let n = plain 0 sent in
  let untraced = now () -. t0 in
  let sample = List.filteri (fun i _ -> i < n) sent in
  let t1 = now () in
  List.iteri
    (fun i x ->
      let payload, handle_s = replay_traced env tr s ~req:i x.s_req in
      add env.acc "serve.handle_s" handle_s;
      add env.acc "serve.wire_s" (x.s_latency -. handle_s);
      operation env.tally "replay"
        [ (String.equal payload (Hashtbl.find s.truth (truth_key x.s_req)), "replayed reply differs") ])
    sample;
  (n, untraced, now () -. t1)

(* Deterministic answer quality, from the ground-truth replies of the
   twelve spaces: (tuned, pareto ratio, pareto frac, predict ratio,
   predict frac) samples. *)
let quality (s : server) =
  let tuned = ref [] and pr = ref [] and pf = ref [] and xr = ref [] and xf = ref [] in
  List.iter
    (fun ((kind, _, _), payload) ->
      match (kind, P.decode_response payload) with
      | Gen.Tune, Ok (P.Tune_r t) -> tuned := t.t_chosen.m_time_s :: !tuned
      | Gen.Explore, Ok (P.Explore_r x) ->
        pr := (x.x_selected_best.m_time_s /. x.x_best.m_time_s) :: !pr;
        pf := (1.0 -. x.x_reduction) :: !pf
      | Gen.Predict, Ok (P.Explore_r { x_prune = Some p; x_best; _ }) ->
        xr := (p.p_winner.m_time_s /. x_best.m_time_s) :: !xr;
        xf := (float_of_int p.p_simulated /. float_of_int p.p_total) :: !xf
      | _ -> ())
    (List.sort compare (List.of_seq (Hashtbl.to_seq s.truth)));
  (!tuned, !pr, !pf, !xr, !xf)
