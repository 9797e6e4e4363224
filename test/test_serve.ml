(* Integration battery for the tuning service: served sweeps must be
   bit-identical to direct [Search.run], a warm store answers without
   the simulator, chaos-faulted request streams degrade gracefully
   without poisoning the store, and no adversarial frame takes the
   daemon down — in-process through [Serve.handle_frame] and end-to-end
   over a real Unix-domain socket. *)

module P = Tuner.Proto
module S = Tuner.Serve

let t name f = Alcotest.test_case name `Quick f
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let with_server (f : S.t -> string -> 'a) : 'a =
  let file = Filename.temp_file "gpuopt-serve-test-" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let store = Tuner.Store.open_ ~file () in
      Fun.protect
        ~finally:(fun () -> Tuner.Store.close store)
        (fun () -> f (S.create ~jobs:2 ~store (Apps.Serving.resolver ())) file))

(* A socket path nothing occupies: [Serve.listen] refuses to replace a
   regular file, so reserve a unique name and free it again. *)
let fresh_socket prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  path

let explore_reply server app : P.explore_reply =
  match S.handle server (P.Explore { app; scale = P.Quick; chaos = None; arch = None; predict = false; deadline_ms = None }) with
  | P.Explore_r x -> x
  | _ -> Alcotest.failf "%s: explore did not return Explore_r" app

let rows_of (ms : Tuner.Search.measured list) : (string * float) list =
  List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) ms

let check_rows what expected (got : P.measured_row list) =
  Alcotest.(check int) (what ^ ": row count") (List.length expected) (List.length got);
  List.iter2
    (fun (desc, time) (r : P.measured_row) ->
      if desc <> r.m_desc || not (feq time r.m_time_s) then
        Alcotest.failf "%s: %s/%h vs served %s/%h" what desc time r.m_desc r.m_time_s)
    expected got

(* ------------------------------------------------------------------ *)
(* Served results vs direct Search.run                                 *)
(* ------------------------------------------------------------------ *)

let identity_tests =
  [
    t "cold served explore is bit-identical to direct Search.run" (fun () ->
        List.iter
          (fun app ->
            let e = Option.get (Apps.Registry.find app) in
            let direct = Tuner.Search.run ~jobs:2 ~app_name:app (e.quick_candidates ()) in
            with_server (fun server _ ->
                let x = explore_reply server app in
                Alcotest.(check int) "space size" direct.space_size x.x_space_size;
                check_rows (app ^ " exhaustive") (rows_of direct.exhaustive) x.x_exhaustive;
                check_rows (app ^ " best") (rows_of [ direct.best ]) [ x.x_best ];
                check_rows (app ^ " selected best")
                  (rows_of [ direct.selected_best ])
                  [ x.x_selected_best ];
                Alcotest.(check (list string)) "selected descs"
                  (List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) direct.selected)
                  x.x_selected;
                Alcotest.(check bool) "reduction bit-equal" true
                  (feq direct.reduction x.x_reduction);
                Alcotest.(check bool) "optimum flag" direct.optimum_selected
                  x.x_optimum_selected))
          [ "matmul"; "cp"; "sad"; "mri" ]);
    t "served tune agrees with direct tune" (fun () ->
        let e = Option.get (Apps.Registry.find "matmul") in
        let best, selected = Tuner.Search.tune ~jobs:2 ~app_name:"matmul" (e.quick_candidates ()) in
        with_server (fun server _ ->
            match S.handle server (P.Tune { app = "matmul"; scale = P.Quick; arch = None; deadline_ms = None }) with
            | P.Tune_r r ->
              Alcotest.(check string) "chosen desc" best.cand.desc r.t_chosen.m_desc;
              Alcotest.(check bool) "chosen time bit-equal" true
                (feq best.time_s r.t_chosen.m_time_s);
              Alcotest.(check (list string)) "selected"
                (List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) selected)
                r.t_selected
            | _ -> Alcotest.fail "tune did not return Tune_r"));
  ]

(* ------------------------------------------------------------------ *)
(* Warm cache and chaos degradation                                    *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    t "warm replay does zero new measurements" (fun () ->
        with_server (fun server _ ->
            let cold = explore_reply server "matmul" in
            Alcotest.(check int) "cold pays the simulator" cold.x_space_size cold.x_runs;
            let warm = explore_reply server "matmul" in
            Alcotest.(check int) "warm runs" 0 warm.x_runs;
            Alcotest.(check int) "warm store hits" warm.x_space_size warm.x_store_hits;
            check_rows "warm rows identical"
              (List.map (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s)) cold.x_exhaustive)
              warm.x_exhaustive;
            (* the tune request over the same space is also free *)
            match S.handle server (P.Tune { app = "matmul"; scale = P.Quick; arch = None; deadline_ms = None }) with
            | P.Tune_r r -> Alcotest.(check int) "tune runs" 0 r.t_runs
            | _ -> Alcotest.fail "tune failed on a warm store"));
    t "the stats reply sums the runs and store hits of every reply" (fun () ->
        with_server (fun server _ ->
            let counts (x : P.explore_reply) = (x.x_runs, x.x_store_hits) in
            let cold = counts (explore_reply server "cp") in
            let warm = counts (explore_reply server "cp") in
            let tune =
              match S.handle server (P.Tune { app = "cp"; scale = P.Quick; arch = None; deadline_ms = None }) with
              | P.Tune_r r -> (r.t_runs, r.t_store_hits)
              | _ -> Alcotest.fail "tune did not return Tune_r"
            in
            let raced =
              match
                S.handle server
                  (P.Explore
                     { app = "cp"; scale = P.Quick; chaos = None; arch = None; predict = true; deadline_ms = None })
              with
              | P.Explore_r x -> counts x
              | _ -> Alcotest.fail "predict-explore did not return Explore_r"
            in
            Alcotest.(check bool) "the cold explore paid the simulator" true (fst cold > 0);
            Alcotest.(check bool) "the warm explore hit the store" true (snd warm > 0);
            let replies = [ cold; warm; tune; raced ] in
            match S.handle server P.Stats with
            | P.Stats_r s ->
              Alcotest.(check int) "sv_runs" (List.fold_left (fun a (r, _) -> a + r) 0 replies) s.sv_runs;
              Alcotest.(check int) "sv_store_hits"
                (List.fold_left (fun a (_, h) -> a + h) 0 replies)
                s.sv_store_hits
            | _ -> Alcotest.fail "stats did not return Stats_r"));
    t "a served predict-explore keys its model blob under the request's scale" (fun () ->
        with_server (fun server _ ->
            (match
               S.handle server
                 (P.Explore
                    { app = "matmul"; scale = P.Quick; chaos = None; arch = None; predict = true; deadline_ms = None })
             with
            | P.Explore_r { x_prune = Some _; _ } -> ()
            | _ -> Alcotest.fail "predict-explore did not return a race outcome");
            let e = Option.get (Apps.Registry.find "matmul") in
            let blob scale =
              let arch, space =
                Tuner.Store.space_digests ~app_name:"matmul" ~scale (e.quick_candidates ())
              in
              Tuner.Store.get_blob server.S.store
                (Tuner.Store.key ~arch ~space ~kernel:"predict-v1")
            in
            Alcotest.(check bool) "blob under the quick key" true (blob "quick" <> None);
            Alcotest.(check bool) "nothing under the full key" true (blob "full" = None)));
    t "a chaos-faulted stream degrades gracefully and never poisons the store" (fun () ->
        with_server (fun server _ ->
            let clean = explore_reply server "matmul" in
            (* chaos-injected request: per-request faults, response still
               well-formed, with each fault in the journal encoding *)
            let chaos =
              match
                S.handle server
                  (P.Explore
                     {
                       app = "matmul";
                       scale = P.Quick;
                       chaos = Some { ch_seed = 7; ch_count = 3 };
                       arch = None;
                       predict = false;
                       deadline_ms = None;
                     })
              with
              | P.Explore_r x -> x
              | _ -> Alcotest.fail "chaos explore did not return Explore_r"
            in
            Alcotest.(check int) "three faults reported" 3 (List.length chaos.x_faults);
            List.iter
              (fun (f : P.fault_row) ->
                match Tuner.Fault.of_journal f.f_fault with
                | Some _ -> ()
                | None -> Alcotest.failf "fault row not in journal encoding: %s" f.f_fault)
              chaos.x_faults;
            Alcotest.(check int) "chaos bypasses the store entirely" 0 chaos.x_store_hits;
            (* the store is unpoisoned: a clean replay is warm and equal *)
            let after = explore_reply server "matmul" in
            Alcotest.(check int) "clean replay after chaos: zero runs" 0 after.x_runs;
            check_rows "clean replay after chaos: rows identical"
              (List.map (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s)) clean.x_exhaustive)
              after.x_exhaustive;
            (* impossible chaos (more faults than candidates) is a typed
               error, not a crash *)
            match
              S.handle server
                (P.Explore
                   {
                     app = "matmul";
                     scale = P.Quick;
                     chaos = Some { ch_seed = 1; ch_count = 1_000_000 };
                     arch = None;
                     predict = false;
                     deadline_ms = None;
                   })
            with
            | P.Error_r { e_code = P.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "oversized chaos count not rejected as Bad_request"));
  ]

(* ------------------------------------------------------------------ *)
(* Adversarial requests through the frame handler                      *)
(* ------------------------------------------------------------------ *)

let handle_frame_tests =
  [
    t "unknown app, bad lint config, garbage frames: typed errors, no crash" (fun () ->
        with_server (fun server _ ->
            (match S.handle server (P.Tune { app = "nope"; scale = P.Quick; arch = None; deadline_ms = None }) with
            | P.Error_r { e_code = P.Unknown_app; e_msg } ->
              Alcotest.(check bool) "lists known apps" true
                (String.length e_msg > 0
                && Option.is_some
                     (String.index_opt e_msg 'm' (* matmul|cp|sad|mri *)))
            | _ -> Alcotest.fail "unknown app not typed");
            (match S.handle server (P.Lint { app = "matmul"; config = Some "no-such-config" }) with
            | P.Error_r { e_code = P.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "bad lint config not typed");
            (match S.handle server (P.Lint { app = "matmul"; config = None }) with
            | P.Lint_r { l_report; l_errors } ->
              Alcotest.(check bool) "report nonempty" true (String.length l_report > 0);
              Alcotest.(check bool) "default config is clean" false l_errors
            | _ -> Alcotest.fail "lint failed");
            List.iter
              (fun garbage ->
                let reply = S.handle_frame server garbage in
                match P.decode_response reply with
                | Ok (P.Error_r { e_code = P.Protocol_error; _ }) -> ()
                | Ok _ -> Alcotest.failf "garbage %S produced a non-error reply" garbage
                | Error e ->
                  Alcotest.failf "error reply failed to decode: %s" (P.decode_error_to_string e))
              [
                "";
                "not json";
                "\x00\xff\xfe";
                {|{"type":"unknown-verb"}|};
                {|{"type":"tune","app":"matmul","scale":"sideways"}|};
                String.make 4096 '[';
              ]));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end over a Unix-domain socket                                *)
(* ------------------------------------------------------------------ *)

let socket_tests =
  [
    t "socket round-trip: serve, request, survive garbage, shut down" (fun () ->
        with_server (fun server _ ->
            let socket = fresh_socket "gpuopt-serve-test-" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove socket with Sys_error _ -> ())
              (fun () ->
                let daemon =
                  Domain.spawn (fun () ->
                      S.listen ~conn_workers:2 ~poll_s:0.05 server ~socket ())
                in
                Alcotest.(check bool) "daemon comes up" true (S.wait_ready ~socket ());
                (* several requests on one connection *)
                S.with_client ~socket (fun fd ->
                    (match S.rpc fd P.Ping with
                    | Ok P.Pong -> ()
                    | _ -> Alcotest.fail "ping failed");
                    match S.rpc fd (P.Explore { app = "matmul"; scale = P.Quick; chaos = None; arch = None; predict = false; deadline_ms = None }) with
                    | Ok (P.Explore_r x) ->
                      Alcotest.(check int) "cold sweep over the socket" x.x_space_size x.x_runs
                    | Ok _ -> Alcotest.fail "wrong reply type"
                    | Error e -> Alcotest.failf "explore rpc: %s" e);
                (* a poisoned connection draws a typed error and dies;
                   the daemon itself survives *)
                S.with_client ~socket (fun fd ->
                    let garbage = "\xFF\xFF\xFF\xFFnonsense" in
                    ignore (Unix.write_substring fd garbage 0 (String.length garbage) : int);
                    match S.read_frame fd with
                    | Ok payload -> (
                      match P.decode_response payload with
                      | Ok (P.Error_r { e_code = P.Protocol_error; _ }) -> ()
                      | _ -> Alcotest.fail "poisoned stream not answered with protocol error")
                    | Error e -> Alcotest.failf "no error reply before close: %s" e);
                (match S.call ~socket P.Stats with
                | Ok (P.Stats_r s) ->
                  Alcotest.(check bool) "daemon alive after garbage; errors counted" true
                    (s.sv_errors >= 1)
                | _ -> Alcotest.fail "stats failed after poisoned connection");
                (match S.call ~socket P.Shutdown with
                | Ok P.Bye -> ()
                | _ -> Alcotest.fail "shutdown not acknowledged");
                Domain.join daemon;
                Alcotest.(check bool) "socket unlinked after shutdown" false
                  (Sys.file_exists socket))));
    t "listen replaces a stale socket and refuses any other file" (fun () ->
        with_server (fun server file ->
            (* Stopped beforehand, so a listen that takes its path binds
               and returns at once instead of serving. *)
            S.request_stop server;
            (* a mistyped socket path naming the store *)
            let before = In_channel.with_open_bin file In_channel.input_all in
            (match S.listen server ~socket:file () with
            | () -> Alcotest.fail "listen took a path that names a regular file"
            | exception S.Bad_socket { socket; _ } ->
              Alcotest.(check string) "error names the path" file socket);
            Alcotest.(check bool) "the file is still there" true (Sys.file_exists file);
            Alcotest.(check string) "the file is unchanged" before
              (In_channel.with_open_bin file In_channel.input_all);
            (* a socket a dead daemon left behind *)
            let stale = fresh_socket "gpuopt-serve-stale-" in
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.bind fd (Unix.ADDR_UNIX stale);
            Unix.close fd;
            Fun.protect
              ~finally:(fun () -> try Sys.remove stale with Sys_error _ -> ())
              (fun () ->
                S.listen server ~socket:stale ();
                Alcotest.(check bool) "stale socket replaced, then unlinked" false
                  (Sys.file_exists stale))));
  ]

(* ------------------------------------------------------------------ *)
(* Hardening: deadlines, overload shedding, wire faults, drain         *)
(* ------------------------------------------------------------------ *)

(* Where [Tuner.Chaos.inject] manufactures faulty candidates, [Strike]
   manufactures faulty clients: each strike is one connect, misbehave,
   disconnect episode against a live daemon socket.  The daemon's
   contract is that none of them crash it, hang a connection worker
   past its I/O timeout, or corrupt the replies of well-behaved
   clients.  Strikes write through [Serve]'s raw socket primitives,
   never through [rpc] or [call], whose retries would soften the blow. *)
module Strike = struct
  type fault =
    | Torn_frame  (* send a strict prefix of a frame, then close *)
    | Byte_flip  (* flip one payload byte, then await the verdict *)
    | Slow_loris  (* drip bytes slower than the server's I/O timeout *)
    | Disconnect_mid_reply  (* valid request, vanish before the reply *)

  let fault_name = function
    | Torn_frame -> "torn-frame"
    | Byte_flip -> "byte-flip"
    | Slow_loris -> "slow-loris"
    | Disconnect_mid_reply -> "disconnect-mid-reply"

  let all_faults = [ Torn_frame; Byte_flip; Slow_loris; Disconnect_mid_reply ]

  (* Wait up to [timeout_s] for the server's reaction to a strike: a
     complete (or garbled) reply frame, or a close. *)
  let await_reaction ?(timeout_s = 10.0) fd : unit =
    let chunk = Bytes.create 65536 in
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec loop buf =
      match P.peek_frame buf ~pos:0 with
      | `Frame _ | `Error _ -> ()
      | `Need _ ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining > 0.0 then (
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> ()
          | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n -> loop (buf ^ Bytes.sub_string chunk 0 n)
            | exception Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop buf)
    in
    loop ""

  (* Execute one strike against [socket], carrying [payload] (an
     encoded request) as ammunition.  Never raises on wire errors: the
     server dropping us mid-strike is a legitimate (often the desired)
     reaction; the caller then checks that the daemon still answers.
     The slow loris drips 4 bytes 0.2 s apart. *)
  let strike ~(rng : Util.Rng.t) ~(socket : string) ~(payload : string) (f : fault) : unit =
    let frame = P.frame payload in
    let flen = String.length frame in
    match f with
    | Torn_frame ->
      (* The server is left holding a partial frame; its only correct
         move is to wait, time out, and drop the connection. *)
      let n = 1 + Util.Rng.int rng (flen - 1) in
      let fd = S.connect ~socket in
      (try S.write_all fd frame 0 n with Unix.Unix_error _ -> ());
      S.close_quietly fd
    | Byte_flip ->
      (* Corrupt one byte of the JSON payload (the length prefix stays
         honest, so the server reads a complete frame and must answer
         with a typed protocol/validation error, not die parsing). *)
      let b = Bytes.of_string frame in
      let pos = 4 + Util.Rng.int rng (flen - 4) in
      let bit = Util.Rng.int rng 8 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let fd = S.connect ~socket in
      (try
         S.write_all fd (Bytes.to_string b) 0 flen;
         await_reaction fd
       with Unix.Unix_error _ -> ());
      S.close_quietly fd
    | Slow_loris ->
      (* Drip bytes slower than the server's I/O timeout.  A hardened
         server cuts us off (write fails or read sees EOF) instead of
         pinning a worker for the full frame. *)
      let fd = S.connect ~socket in
      let sent = ref 0 in
      (try
         while !sent < min 4 flen do
           S.write_all fd frame !sent 1;
           incr sent;
           Unix.sleepf 0.2
         done
       with Unix.Unix_error _ -> ());
      await_reaction ~timeout_s:2.0 fd;
      S.close_quietly fd
    | Disconnect_mid_reply ->
      (* A complete, valid request, then vanish.  The server's reply
         write hits a dead peer (EPIPE); with SIGPIPE ignored this
         must be a non-event. *)
      let fd = S.connect ~socket in
      (try S.write_all fd frame 0 flen with Unix.Unix_error _ -> ());
      S.close_quietly fd
end

let explore_req ?deadline_ms app : P.request =
  P.Explore
    { app; scale = P.Quick; chaos = None; arch = None; predict = false; deadline_ms }

let with_daemon ?(conn_workers = 2) ?(io_timeout_s = 30.0) ?max_queue ?retry_after_ms
    ?(on_sigterm = false) ?(ready = true) server (f : string -> 'a) : 'a =
  let socket = fresh_socket "gpuopt-serve-hard-" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let daemon =
        Domain.spawn (fun () ->
            S.listen ~conn_workers ~poll_s:0.05 ~io_timeout_s ?max_queue ?retry_after_ms
              ~on_sigterm server ~socket ())
      in
      Fun.protect
        ~finally:(fun () ->
          S.request_stop server;
          Domain.join daemon)
        (fun () ->
          if ready then
            Alcotest.(check bool) "daemon comes up" true (S.wait_ready ~socket ());
          f socket))

let hardening_tests =
  [
    t "deadline 0 on a cold sweep is typed; the warm store answers it anyway" (fun () ->
        with_server (fun server _ ->
            (match S.handle server (explore_req ~deadline_ms:0 "matmul") with
            | P.Error_r { e_code = P.Deadline_exceeded; _ } -> ()
            | _ -> Alcotest.fail "cold sweep under an expired deadline not typed");
            (* pay for the sweep once, then the same impossible deadline
               succeeds from the warm store — answering from memory does
               not miss a deadline *)
            let clean = explore_reply server "matmul" in
            match S.handle server (explore_req ~deadline_ms:0 "matmul") with
            | P.Explore_r x ->
              Alcotest.(check int) "warm deadline sweep: zero runs" 0 x.x_runs;
              check_rows "warm deadline sweep: rows bit-identical"
                (List.map (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s)) clean.x_exhaustive)
                x.x_exhaustive
            | P.Error_r { e_code; e_msg } ->
              Alcotest.failf "warm sweep failed under deadline: %s: %s"
                (P.error_code_name e_code) e_msg
            | _ -> Alcotest.fail "warm sweep: wrong reply type"));
    t "concurrent first predict-explores on a bench-scale space both answer deadline-exceeded"
      (fun () ->
        (* Both connection workers reach the space's reduced race list
           while it is still unforced; the second must wait for the
           first to force it, not observe a lazy mid-force. *)
        let req =
          P.Explore
            { app = "cp"; scale = P.Bench; chaos = None; arch = None; predict = true; deadline_ms = Some 1 }
        in
        for round = 1 to 5 do
          with_server (fun server _ ->
              let ready = Atomic.make 0 in
              let worker () =
                Atomic.incr ready;
                while Atomic.get ready < 2 do
                  Domain.cpu_relax ()
                done;
                S.handle server req
              in
              let a = Domain.spawn worker and b = Domain.spawn worker in
              List.iter
                (fun resp ->
                  match resp with
                  | P.Error_r { e_code = P.Deadline_exceeded; _ } -> ()
                  | P.Error_r { e_code; e_msg } ->
                    Alcotest.failf "round %d: %s: %s" round (P.error_code_name e_code) e_msg
                  | _ -> Alcotest.failf "round %d: a cold sweep beat a 1 ms deadline" round)
                [ Domain.join a; Domain.join b ])
        done);
    t "tune under an expired deadline is typed too" (fun () ->
        with_server (fun server _ ->
            match
              S.handle server
                (P.Tune { app = "matmul"; scale = P.Quick; arch = None; deadline_ms = Some 0 })
            with
            | P.Error_r { e_code = P.Deadline_exceeded; _ } -> ()
            | _ -> Alcotest.fail "cold tune under an expired deadline not typed"));
    t "a full accept queue sheds with a typed overloaded reply, never a hang" (fun () ->
        with_server (fun server _ ->
            with_daemon ~conn_workers:1 ~max_queue:0 ~retry_after_ms:7 ~ready:false server
              (fun socket ->
                (* with max_queue 0 every connection sheds at the door *)
                let deadline = Unix.gettimeofday () +. 10.0 in
                let rec shed () =
                  match S.call ~socket P.Ping with
                  | Ok (P.Overloaded_r { o_retry_after_ms }) -> o_retry_after_ms
                  | _ when Unix.gettimeofday () < deadline ->
                    Unix.sleepf 0.05;
                    shed ()
                  | _ -> Alcotest.fail "no typed overloaded reply before timeout"
                in
                Alcotest.(check int) "shed carries the retry hint" 7 (shed ());
                (* a retrying client that never finds room still gets the
                   typed shed back, not an exception or a hang *)
                match S.call ~retries:2 ~retry_base_ms:5 ~socket P.Ping with
                | Ok (P.Overloaded_r _) -> ()
                | Ok _ -> Alcotest.fail "retried call got through a zero-length queue"
                | Error e -> Alcotest.failf "retried call errored instead of shedding: %s" e)));
    t "wire faults: torn frame, byte flip, slow loris, vanishing client — daemon survives"
      (fun () ->
        with_server (fun server _ ->
            with_daemon ~io_timeout_s:1.0 server (fun socket ->
                (* pay for one sweep so the reply to the vanishing client
                   below is a large frame written to a dead peer *)
                let before =
                  match S.call ~socket (explore_req "matmul") with
                  | Ok (P.Explore_r x) -> x
                  | _ -> Alcotest.fail "baseline explore failed"
                in
                let rng = Util.Rng.create 42 in
                let payload = P.encode_request P.Ping in
                List.iter
                  (fun f ->
                    Strike.strike ~rng ~socket ~payload f;
                    match S.call ~socket P.Ping with
                    | Ok P.Pong -> ()
                    | _ -> Alcotest.failf "daemon unresponsive after %s" (Strike.fault_name f))
                  Strike.all_faults;
                (* the client that dies between request and reply: a full
                   explore reply hits the closed socket (EPIPE); without
                   SIGPIPE ignored this kills the whole process *)
                Strike.strike ~rng ~socket
                  ~payload:(P.encode_request (explore_req "matmul"))
                  Strike.Disconnect_mid_reply;
                (match S.call ~socket P.Ping with
                | Ok P.Pong -> ()
                | _ -> Alcotest.fail "daemon died writing a reply to a vanished client");
                (* and the warm results are still bit-identical *)
                match S.call ~socket (explore_req "matmul") with
                | Ok (P.Explore_r after) ->
                  Alcotest.(check int) "warm after assault: zero runs" 0 after.x_runs;
                  check_rows "warm after assault: rows bit-identical"
                    (List.map
                       (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s))
                       before.x_exhaustive)
                    after.x_exhaustive
                | _ -> Alcotest.fail "post-assault explore failed")));
    t "SIGTERM drains gracefully: in-flight request finishes, listen returns" (fun () ->
        with_server (fun server _ ->
            with_daemon ~on_sigterm:true server (fun socket ->
                let client = Domain.spawn (fun () -> S.call ~socket (explore_req "matmul")) in
                Unix.sleepf 0.3;
                Unix.kill (Unix.getpid ()) Sys.sigterm;
                (match Domain.join client with
                | Ok (P.Explore_r _) -> ()
                | Ok _ -> Alcotest.fail "in-flight request: wrong reply type"
                | Error e -> Alcotest.failf "in-flight request dropped by the drain: %s" e);
                (* the drain must actually stop the daemon, not just the
                   connection: give it a moment, then verify *)
                let deadline = Unix.gettimeofday () +. 10.0 in
                while not (S.stopping server) && Unix.gettimeofday () < deadline do
                  Unix.sleepf 0.02
                done;
                Alcotest.(check bool) "stop flag raised by the handler" true
                  (S.stopping server));
            Sys.set_signal Sys.sigterm Sys.Signal_default));
    t "listen refuses a live daemon's socket; the daemon keeps answering" (fun () ->
        with_server (fun server _ ->
            with_daemon server (fun socket ->
                with_server (fun second _ ->
                    (* Stopped beforehand, so a listen that took the path
                       would return at once instead of serving. *)
                    S.request_stop second;
                    match S.listen second ~socket () with
                    | () -> Alcotest.fail "a second listen took a live daemon's socket"
                    | exception S.Bad_socket { socket = path; _ } ->
                      Alcotest.(check string) "error names the path" socket path);
                match S.call ~socket P.Ping with
                | Ok P.Pong -> ()
                | _ -> Alcotest.fail "the first daemon no longer answers")));
  ]

let suite =
  [
    ( "serve",
      identity_tests @ cache_tests @ handle_frame_tests @ socket_tests @ hardening_tests );
  ]
