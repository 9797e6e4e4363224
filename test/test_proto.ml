(* Wire-protocol battery: QCheck round-trips for every message, plus
   adversarial framing — truncated frames, oversized length prefixes,
   interleaved garbage, hostile JSON.  The contract under test is
   totality: any bytes produce either a message or a typed error,
   never an exception, a hang or a stack overflow. *)

module P = Tuner.Proto
module J = Util.Json

let t name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest

(* Exact float identity, NaN included. *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_string =
  (* Full byte range: the codec must round-trip control characters and
     non-UTF-8 bytes, not just pretty ASCII. *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 24))

let gen_float =
  (* [Float.nan] is itself a payload NaN (0x7ff8...001); the other two
     NaNs pin sign and arbitrary-payload round-trips. *)
  QCheck.Gen.(
    oneof
      [
        float;
        oneofl
          [
            Float.nan;
            Int64.float_of_bits 0xFFF8000000000000L;
            Int64.float_of_bits 0x7FF0123456789ABCL;
            Float.infinity;
            Float.neg_infinity;
            0.0;
            -0.0;
            0x1p-1074;
            1e300;
          ];
      ])

let gen_scale = QCheck.Gen.oneofl [ P.Quick; P.Bench; P.Full ]

let gen_chaos =
  QCheck.Gen.(
    opt (map2 (fun s c -> { P.ch_seed = s; ch_count = c }) small_int small_int))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return P.Ping;
        return P.Stats;
        return P.Shutdown;
        map2
          (fun (app, scale) (arch, deadline_ms) -> P.Tune { app; scale; arch; deadline_ms })
          (pair gen_string gen_scale)
          (pair (opt gen_string) (opt small_int));
        map3
          (fun (app, scale) (chaos, arch) (predict, deadline_ms) ->
            P.Explore { app; scale; chaos; arch; predict; deadline_ms })
          (pair gen_string gen_scale)
          (pair gen_chaos (opt gen_string))
          (pair bool (opt small_int));
        map2 (fun app config -> P.Lint { app; config }) gen_string (opt gen_string);
      ])

let gen_row = QCheck.Gen.(map2 (fun d x -> { P.m_desc = d; m_time_s = x }) gen_string gen_float)
let gen_fault = QCheck.Gen.(map2 (fun d f -> { P.f_desc = d; f_fault = f }) gen_string gen_string)

let gen_prune =
  QCheck.Gen.(
    opt
      (map2
         (fun (total, probes, raced, simulated, rank) (winner, recovered, model) ->
           {
             P.p_total = total;
             p_probes = probes;
             p_raced = raced;
             p_simulated = simulated;
             p_winner = winner;
             p_rank = rank;
             p_recovered = recovered;
             p_model = model;
           })
         (tup5 small_int small_int small_int small_int small_int)
         (triple gen_row bool gen_string)))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return P.Pong;
        return P.Bye;
        map
          (fun (a, b, c, d, e, f) ->
            P.Stats_r
              {
                sv_requests = a;
                sv_errors = b;
                sv_runs = c;
                sv_store_hits = d;
                sv_store_misses = e;
                sv_store_entries = f;
              })
          (tup6 small_int small_int small_int small_int small_int small_int);
        map
          (fun ((app, n, chosen, sel, runs, hits), arch) ->
            P.Tune_r
              {
                t_app = app;
                t_arch = arch;
                t_space_size = n;
                t_chosen = chosen;
                t_selected = sel;
                t_runs = runs;
                t_store_hits = hits;
              })
          (pair
             (tup6 gen_string small_int gen_row (small_list gen_string) small_int small_int)
             gen_string);
        map3
          (fun (app, n, inv, best, sbest, sel) ((ex, red, opt, faults, runs, hits), arch) prune ->
            P.Explore_r
              {
                x_app = app;
                x_arch = arch;
                x_space_size = n;
                x_invalid = inv;
                x_best = best;
                x_selected_best = sbest;
                x_selected = sel;
                x_exhaustive = ex;
                x_reduction = red;
                x_optimum_selected = opt;
                x_faults = faults;
                x_runs = runs;
                x_store_hits = hits;
                x_prune = prune;
              })
          (tup6 gen_string small_int small_int gen_row gen_row (small_list gen_string))
          (pair
             (tup6 (small_list gen_row) gen_float bool (small_list gen_fault) small_int
                small_int)
             gen_string)
          gen_prune;
        map2 (fun r e -> P.Lint_r { l_report = r; l_errors = e }) gen_string bool;
        map2
          (fun c m -> P.Error_r { e_code = c; e_msg = m })
          (oneofl
             [
               P.Unknown_app;
               P.Bad_request;
               P.Protocol_error;
               P.Server_error;
               P.Deadline_exceeded;
             ])
          gen_string;
        map (fun ms -> P.Overloaded_r { o_retry_after_ms = ms }) small_int;
      ])

(* ------------------------------------------------------------------ *)
(* Message equality (floats by bits)                                   *)
(* ------------------------------------------------------------------ *)

let row_eq (a : P.measured_row) (b : P.measured_row) =
  String.equal a.m_desc b.m_desc && feq a.m_time_s b.m_time_s

let req_eq (a : P.request) (b : P.request) =
  match (a, b) with
  | P.Ping, P.Ping | P.Stats, P.Stats | P.Shutdown, P.Shutdown -> true
  | P.Tune x, P.Tune y ->
    x.app = y.app && x.scale = y.scale && x.arch = y.arch && x.deadline_ms = y.deadline_ms
  | P.Explore x, P.Explore y ->
    x.app = y.app && x.scale = y.scale && x.chaos = y.chaos && x.arch = y.arch
    && x.predict = y.predict
    && x.deadline_ms = y.deadline_ms
  | P.Lint x, P.Lint y -> x.app = y.app && x.config = y.config
  | _ -> false

let prune_eq (a : P.prune_row) (b : P.prune_row) =
  a.p_total = b.p_total && a.p_probes = b.p_probes && a.p_raced = b.p_raced
  && a.p_simulated = b.p_simulated
  && row_eq a.p_winner b.p_winner
  && a.p_rank = b.p_rank && a.p_recovered = b.p_recovered && a.p_model = b.p_model

let resp_eq (a : P.response) (b : P.response) =
  match (a, b) with
  | P.Pong, P.Pong | P.Bye, P.Bye -> true
  | P.Stats_r x, P.Stats_r y -> x = y
  | P.Tune_r x, P.Tune_r y ->
    x.t_app = y.t_app && x.t_arch = y.t_arch && x.t_space_size = y.t_space_size
    && row_eq x.t_chosen y.t_chosen && x.t_selected = y.t_selected && x.t_runs = y.t_runs
    && x.t_store_hits = y.t_store_hits
  | P.Explore_r x, P.Explore_r y ->
    x.x_app = y.x_app && x.x_arch = y.x_arch && x.x_space_size = y.x_space_size
    && x.x_invalid = y.x_invalid
    && row_eq x.x_best y.x_best
    && row_eq x.x_selected_best y.x_selected_best
    && x.x_selected = y.x_selected
    && List.length x.x_exhaustive = List.length y.x_exhaustive
    && List.for_all2 row_eq x.x_exhaustive y.x_exhaustive
    && feq x.x_reduction y.x_reduction
    && x.x_optimum_selected = y.x_optimum_selected
    && x.x_faults = y.x_faults && x.x_runs = y.x_runs && x.x_store_hits = y.x_store_hits
    && Option.equal prune_eq x.x_prune y.x_prune
  | P.Lint_r x, P.Lint_r y -> x.l_report = y.l_report && x.l_errors = y.l_errors
  | P.Error_r x, P.Error_r y -> x.e_code = y.e_code && x.e_msg = y.e_msg
  | P.Overloaded_r x, P.Overloaded_r y -> x.o_retry_after_ms = y.o_retry_after_ms
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip_tests =
  [
    qt
      (QCheck.Test.make ~name:"request round-trips through encode/decode (qcheck)" ~count:500
         (QCheck.make gen_request) (fun req ->
           match P.decode_request (P.encode_request req) with
           | Ok req' -> req_eq req req'
           | Error e -> QCheck.Test.fail_reportf "decode: %s" (P.decode_error_to_string e)));
    qt
      (QCheck.Test.make
         ~name:"response round-trips through encode/decode, floats bit-exact (qcheck)" ~count:500
         (QCheck.make gen_response) (fun resp ->
           match P.decode_response (P.encode_response resp) with
           | Ok resp' -> resp_eq resp resp'
           | Error e -> QCheck.Test.fail_reportf "decode: %s" (P.decode_error_to_string e)));
    qt
      (QCheck.Test.make ~name:"JSON values survive print/parse (qcheck)" ~count:500
         (QCheck.make
            QCheck.Gen.(
              sized (fun n ->
                  fix
                    (fun self n ->
                      if n = 0 then
                        oneof
                          [
                            return J.Null;
                            map (fun b -> J.Bool b) bool;
                            map (fun i -> J.Int i) int;
                            map (fun s -> J.Str s) gen_string;
                          ]
                      else
                        oneof
                          [
                            map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
                            map
                              (fun l -> J.Obj l)
                              (list_size (int_bound 4) (pair gen_string (self (n / 2))));
                          ])
                    (min n 6))))
         (fun v ->
           match J.of_string (J.to_string v) with Ok v' -> v = v' | Error _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Adversarial framing                                                 *)
(* ------------------------------------------------------------------ *)

let framing_tests =
  [
    t "frame/peek_frame round-trip, including back-to-back frames" (fun () ->
        let a = "hello" and b = String.make 300 'x' in
        let buf = P.frame a ^ P.frame b in
        match P.peek_frame buf ~pos:0 with
        | `Frame (p, next) -> (
          Alcotest.(check string) "first payload" a p;
          match P.peek_frame buf ~pos:next with
          | `Frame (p2, next2) ->
            Alcotest.(check string) "second payload" b p2;
            Alcotest.(check int) "consumed exactly" (String.length buf) next2
          | _ -> Alcotest.fail "second frame not found")
        | _ -> Alcotest.fail "first frame not found");
    qt
      (QCheck.Test.make ~name:"every strict prefix of a frame asks for the missing bytes (qcheck)"
         ~count:200
         (QCheck.make QCheck.Gen.(pair gen_string (int_bound 1000)))
         (fun (payload, cut) ->
           let full = P.frame payload in
           let cut = cut mod String.length full in
           let prefix = String.sub full 0 cut in
           match P.peek_frame prefix ~pos:0 with
           | `Need k ->
             (* before the 4-byte header is in, only its remainder is
                requested; after, the remainder of the whole frame *)
             k = (if cut < 4 then 4 - cut else String.length full - cut)
             && (match P.peek_frame full ~pos:0 with `Frame (p, _) -> p = payload | _ -> false)
             &&
             (* a stream ending here is a typed truncation, not a crash *)
             (match P.at_eof ~pending:cut ~need:k with
             | Some (P.Truncated _) -> cut > 0 || k <> 4
             | None -> cut = 0
             | Some (P.Oversized _) -> false)
           | _ -> false));
    t "oversized length prefix is rejected before allocation" (fun () ->
        let header = Bytes.create 4 in
        Bytes.set_uint8 header 0 0x7F;
        Bytes.set_uint8 header 1 0xFF;
        Bytes.set_uint8 header 2 0xFF;
        Bytes.set_uint8 header 3 0xFF;
        (match P.peek_frame (Bytes.to_string header) ~pos:0 with
        | `Error (P.Oversized { frame_len; max_len }) ->
          Alcotest.(check int) "declared" 0x7FFFFFFF frame_len;
          Alcotest.(check int) "limit" P.default_max_frame max_len
        | _ -> Alcotest.fail "oversized frame accepted");
        (* one byte over the limit is already out *)
        let n = P.default_max_frame + 1 in
        let h = Bytes.create 4 in
        Bytes.set_uint8 h 0 ((n lsr 24) land 0xFF);
        Bytes.set_uint8 h 1 ((n lsr 16) land 0xFF);
        Bytes.set_uint8 h 2 ((n lsr 8) land 0xFF);
        Bytes.set_uint8 h 3 (n land 0xFF);
        match P.peek_frame (Bytes.to_string h) ~pos:0 with
        | `Error (P.Oversized _) -> ()
        | _ -> Alcotest.fail "limit+1 frame accepted");
    qt
      (QCheck.Test.make ~name:"garbage bytes never crash the decoders (qcheck)" ~count:500
         (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 64)))
         (fun garbage ->
           (* Any result is fine; an exception is the only failure. *)
           (match P.decode_request garbage with Ok _ | Error _ -> ());
           (match P.decode_response garbage with Ok _ | Error _ -> ());
           (match P.peek_frame garbage ~pos:0 with `Frame _ | `Need _ | `Error _ -> ());
           true));
    t "interleaved garbage between frames surfaces as a typed error" (fun () ->
        (* A valid frame, then bytes that declare an absurd length: the
           stream is poisoned and must die with Oversized, not hang. *)
        let buf = P.frame {|{"type":"ping"}|} ^ "\xFF\xFF\xFF\xFFgarbage" in
        match P.peek_frame buf ~pos:0 with
        | `Frame (p, next) -> (
          Alcotest.(check bool) "first frame decodes" true (P.decode_request p = Ok P.Ping);
          match P.peek_frame buf ~pos:next with
          | `Error (P.Oversized _) -> ()
          | _ -> Alcotest.fail "garbage tail not rejected")
        | _ -> Alcotest.fail "leading frame lost");
    t "hostile JSON: deep nesting terminates with an error, not a stack overflow" (fun () ->
        let deep = String.make 100_000 '[' in
        (match J.of_string deep with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "100k-deep nesting parsed");
        match P.decode_request (String.make 100_000 '{') with
        | Error (P.Bad_json _) -> ()
        | _ -> Alcotest.fail "deep object accepted");
    t "well-formed JSON of the wrong shape is a Bad_message" (fun () ->
        List.iter
          (fun text ->
            match P.decode_request text with
            | Error (P.Bad_message _) -> ()
            | Ok _ -> Alcotest.failf "%s decoded as a request" text
            | Error (P.Bad_json m) -> Alcotest.failf "%s reported as bad JSON: %s" text m)
          [
            {|{"type":"warp-speed"}|};
            {|{"type":"tune"}|};
            {|{"type":"tune","app":"matmul","scale":"galactic"}|};
            {|{"type":"tune","app":42,"scale":"quick"}|};
            {|{"no_type":true}|};
            {|[1,2,3]|};
            {|"just a string"|};
          ]);
  ]


(* ------------------------------------------------------------------ *)
(* Wire pins: exact bytes, and what older peers send                   *)
(* ------------------------------------------------------------------ *)

let row d t = { P.m_desc = d; m_time_s = t }

(* One message per constructor, with its optional fields absent and
   present, and the exact bytes it travels as. *)
let request_pins =
  [
    (P.Ping, {|{"type":"ping"}|});
    (P.Stats, {|{"type":"stats"}|});
    (P.Shutdown, {|{"type":"shutdown"}|});
    ( P.Tune { app = "matmul"; scale = P.Quick; arch = None; deadline_ms = None },
      {|{"type":"tune","app":"matmul","scale":"quick"}|} );
    ( P.Tune { app = "sad"; scale = P.Full; arch = Some "wide32"; deadline_ms = Some 5000 },
      {|{"type":"tune","app":"sad","scale":"full","arch":"wide32","deadline_ms":5000}|} );
    ( P.Explore
        { app = "cp"; scale = P.Bench; chaos = None; arch = None; predict = false; deadline_ms = None },
      {|{"type":"explore","app":"cp","scale":"bench"}|} );
    ( P.Explore
        {
          app = "mri";
          scale = P.Quick;
          chaos = Some { ch_seed = 7; ch_count = 3 };
          arch = Some "fpga_soft";
          predict = true;
          deadline_ms = Some 0;
        },
      {|{"type":"explore","app":"mri","scale":"quick","arch":"fpga_soft","predict":true,"deadline_ms":0,"chaos":{"seed":7,"count":3}}|}
    );
    (P.Lint { app = "matmul"; config = None }, {|{"type":"lint","app":"matmul"}|});
    ( P.Lint { app = "matmul"; config = Some "16x16/1x1/u1" },
      {|{"type":"lint","app":"matmul","config":"16x16/1x1/u1"}|} );
  ]

let explore_reply prune =
  P.Explore_r
    {
      x_app = "matmul";
      x_arch = "wide32";
      x_space_size = 2;
      x_invalid = 1;
      x_best = row "a" 0.25;
      x_selected_best = row "b" 0.5;
      x_selected = [ "b" ];
      x_exhaustive = [ row "a" 0.25; row "b" 0.5 ];
      x_reduction = 0.5;
      x_optimum_selected = false;
      x_faults = (if prune = None then [] else [ { P.f_desc = "c"; f_fault = "launch \"x\"" } ]);
      x_runs = 2;
      x_store_hits = 0;
      x_prune = prune;
    }

let response_pins =
  [
    (P.Pong, {|{"type":"pong"}|});
    (P.Bye, {|{"type":"bye"}|});
    ( P.Stats_r
        {
          sv_requests = 1;
          sv_errors = 2;
          sv_runs = 3;
          sv_store_hits = 4;
          sv_store_misses = 5;
          sv_store_entries = 6;
        },
      {|{"type":"stats","requests":1,"errors":2,"runs":3,"store_hits":4,"store_misses":5,"store_entries":6}|}
    );
    ( P.Tune_r
        {
          t_app = "sad";
          t_arch = "g80";
          t_space_size = 3;
          t_chosen = row "x" 1.5;
          t_selected = [ "x"; "y" ];
          t_runs = 1;
          t_store_hits = 1;
        },
      {|{"type":"tune","app":"sad","arch":"g80","space_size":3,"chosen":{"desc":"x","time":"0x1.8p+0"},"selected":["x","y"],"runs":1,"store_hits":1}|}
    );
    ( explore_reply None,
      {|{"type":"explore","app":"matmul","arch":"wide32","space_size":2,"invalid":1,"best":{"desc":"a","time":"0x1p-2"},"selected_best":{"desc":"b","time":"0x1p-1"},"selected":["b"],"exhaustive":[{"desc":"a","time":"0x1p-2"},{"desc":"b","time":"0x1p-1"}],"reduction":"0x1p-1","optimum_selected":false,"faults":[],"runs":2,"store_hits":0}|}
    );
    ( explore_reply
        (Some
           {
             p_total = 2;
             p_probes = 1;
             p_raced = 2;
             p_simulated = 1;
             p_winner = row "a" 0.25;
             p_rank = 1;
             p_recovered = true;
             p_model = "0123abcd";
           }),
      {|{"type":"explore","app":"matmul","arch":"wide32","space_size":2,"invalid":1,"best":{"desc":"a","time":"0x1p-2"},"selected_best":{"desc":"b","time":"0x1p-1"},"selected":["b"],"exhaustive":[{"desc":"a","time":"0x1p-2"},{"desc":"b","time":"0x1p-1"}],"reduction":"0x1p-1","optimum_selected":false,"faults":[{"desc":"c","fault":"launch \"x\""}],"runs":2,"store_hits":0,"prune":{"total":2,"probes":1,"raced":2,"simulated":1,"winner":{"desc":"a","time":"0x1p-2"},"rank":1,"recovered":true,"model":"0123abcd"}}|}
    );
    (P.Lint_r { l_report = "ok\n"; l_errors = false }, {|{"type":"lint","report":"ok\n","errors":false}|});
    ( P.Error_r { e_code = P.Deadline_exceeded; e_msg = "late" },
      {|{"type":"error","code":"deadline-exceeded","msg":"late"}|} );
    (P.Overloaded_r { o_retry_after_ms = 200 }, {|{"type":"overloaded","retry_after_ms":200}|});
  ]

let pin_tests =
  [
    t "every request encodes to its pinned bytes and decodes back" (fun () ->
        List.iter
          (fun (req, bytes) ->
            Alcotest.(check string) "encoded bytes" bytes (P.encode_request req);
            match P.decode_request bytes with
            | Ok req' when req_eq req req' -> ()
            | _ -> Alcotest.failf "%s does not decode to its request" bytes)
          request_pins);
    t "every response encodes to its pinned bytes and decodes back" (fun () ->
        List.iter
          (fun (resp, bytes) ->
            Alcotest.(check string) "encoded bytes" bytes (P.encode_response resp);
            match P.decode_response bytes with
            | Ok resp' when resp_eq resp resp' -> ()
            | _ -> Alcotest.failf "%s does not decode to its response" bytes)
          response_pins);
    t "messages from older peers decode with the defaults they imply" (fun () ->
        (* Pre-registry servers sent no arch: their measurements are G80's. *)
        (match
           P.decode_response
             {|{"type":"tune","app":"sad","space_size":3,"chosen":{"desc":"x","time":"0x1.8p+0"},"selected":["x"],"runs":1,"store_hits":1}|}
         with
        | Ok (P.Tune_r r) -> Alcotest.(check string) "tune reply arch" "g80" r.t_arch
        | _ -> Alcotest.fail "arch-less tune reply rejected");
        (match
           P.decode_response
             {|{"type":"explore","app":"matmul","space_size":1,"invalid":0,"best":{"desc":"a","time":"0x1p-2"},"selected_best":{"desc":"a","time":"0x1p-2"},"selected":["a"],"exhaustive":[{"desc":"a","time":"0x1p-2"}],"reduction":"0x0p+0","optimum_selected":true,"faults":[],"runs":1,"store_hits":0}|}
         with
        | Ok (P.Explore_r x) ->
          Alcotest.(check string) "explore reply arch" "g80" x.x_arch;
          Alcotest.(check bool) "no race row" true (x.x_prune = None)
        | _ -> Alcotest.fail "arch-less explore reply rejected");
        (* Clients older than the predictor, the deadline and chaos sent
           none of those fields. *)
        (match P.decode_request {|{"type":"explore","app":"cp","scale":"quick"}|} with
        | Ok (P.Explore x) ->
          Alcotest.(check bool) "predict" false x.predict;
          Alcotest.(check (option int)) "deadline_ms" None x.deadline_ms;
          Alcotest.(check bool) "chaos" true (x.chaos = None);
          Alcotest.(check (option string)) "arch" None x.arch
        | _ -> Alcotest.fail "field-less explore request rejected");
        match P.decode_request {|{"type":"tune","app":"cp","scale":"quick"}|} with
        | Ok (P.Tune x) ->
          Alcotest.(check (option int)) "tune deadline_ms" None x.deadline_ms;
          Alcotest.(check (option string)) "tune arch" None x.arch
        | _ -> Alcotest.fail "field-less tune request rejected");
  ]

(* One malformed frame per failure kind, and the exact text the decoder
   reports for it.  The last two rows pin the rules for what a frame
   with several faults names: the first in wire order, and a named
   field that holds a non-object rather than that object's fields. *)
let tune_reply ~chosen ~selected =
  Printf.sprintf
    {|{"type":"tune","app":"sad","arch":"g80","space_size":3,"chosen":%s,"selected":%s,"runs":1,"store_hits":1}|}
    chosen selected

let error_text_rows =
  let request s = Result.map ignore (P.decode_request s)
  and response s = Result.map ignore (P.decode_response s) in
  let ok_row = {|{"desc":"x","time":"0x1.8p+0"}|} in
  [
    (request, {|[1,2,3]|}, {|request: missing field "type"|});
    (request, {|{"type":7}|}, {|request: field "type" is not a string|});
    (request, {|{"type":"warp-speed"}|}, {|request: unknown request type "warp-speed"|});
    (response, {|{"type":"warp-speed"}|}, {|response: unknown response type "warp-speed"|});
    (request, {|{"type":"lint"}|}, {|request: missing field "app"|});
    (request, {|{"type":"lint","app":1}|}, {|request: field "app" is not a string|});
    (request, {|{"type":"tune","app":"cp","scale":"galactic"}|}, {|request: unknown scale "galactic"|});
    (request, {|{"type":"tune","app":"cp","scale":"quick","arch":1}|}, {|request: field "arch" is not a string|});
    ( request,
      {|{"type":"tune","app":"cp","scale":"quick","deadline_ms":"soon"}|},
      {|request: field "deadline_ms" is not an integer|} );
    ( request,
      {|{"type":"explore","app":"cp","scale":"quick","predict":1}|},
      {|request: field "predict" is not a boolean|} );
    ( request,
      {|{"type":"explore","app":"cp","scale":"quick","chaos":{"seed":"x","count":1}}|},
      {|request: field "seed" is not an integer|} );
    ( response,
      {|{"type":"overloaded","retry_after_ms":"x"}|},
      {|response: field "retry_after_ms" is not an integer|} );
    (response, {|{"type":"lint","report":"","errors":"no"}|}, {|response: field "errors" is not a boolean|});
    (response, {|{"type":"error","code":"oops","msg":"m"}|}, {|response: unknown error code "oops"|});
    ( response,
      tune_reply ~chosen:ok_row ~selected:{|"x"|},
      {|response: field "selected" is not an array|} );
    (response, tune_reply ~chosen:ok_row ~selected:{|[1]|}, {|response: array item is not a string|});
    ( response,
      tune_reply ~chosen:{|{"desc":"x","time":"soon"}|} ~selected:{|[]|},
      {|response: field "time" is not a hexadecimal float|} );
    ( response,
      tune_reply ~chosen:{|{"desc":"x","time":1.5}|} ~selected:{|[]|},
      {|response: field "time" is not a float-carrying string|} );
    (request, {|{"type":"tune"}|}, {|request: missing field "app"|});
    ( response,
      {|{"type":"explore","app":"cp","space_size":1,"invalid":0,"best":true,"selected_best":{"desc":"a","time":"0x1p-2"},"selected":["a"],"exhaustive":[],"reduction":"0x0p+0","optimum_selected":true,"faults":[],"runs":1,"store_hits":0}|},
      {|response: field "best" is not an object|} );
  ]

let error_text_tests =
  [
    t "each malformed frame names its fault in the decoder's exact words" (fun () ->
        List.iter
          (fun (decode, frame, text) ->
            match decode frame with
            | Error (P.Bad_message m) -> Alcotest.(check string) frame text m
            | Error (P.Bad_json m) -> Alcotest.failf "%s reported as bad JSON: %s" frame m
            | Ok _ -> Alcotest.failf "%s decoded" frame)
          error_text_rows);
  ]

let suite = [ ("proto", roundtrip_tests @ framing_tests @ pin_tests @ error_text_tests) ]
