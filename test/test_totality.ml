(* Totality of the text formats we parse, as seeded properties: every
   mutant of a valid input either parses or fails with the parser's own
   typed error, never an escaping stdlib exception.

   The mutants come from a fixed [Util.Rng] seed, so a failure names a
   reproducible input.  Each gets 1-4 edits: a byte replacement, a short
   deletion, a punctuation insert or a truncation. *)

let t name f = Alcotest.test_case name `Quick f

let punctuation = "(){}[];,.:=<>+-*/%!&|@$#\"'\\"

let edit rng (s : string) : string =
  let n = String.length s in
  if n = 0 then s
  else
    let pos = Util.Rng.int rng n in
    match Util.Rng.int rng 4 with
    | 0 ->
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Util.Rng.int rng 256));
      Bytes.to_string b
    | 1 ->
      let len = min (n - pos) (1 + Util.Rng.int rng 8) in
      String.sub s 0 pos ^ String.sub s (pos + len) (n - pos - len)
    | 2 ->
      let c = punctuation.[Util.Rng.int rng (String.length punctuation)] in
      String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)
    | _ -> String.sub s 0 pos

let mutant rng (s : string) : string =
  let rec go k s = if k = 0 then s else go (k - 1) (edit rng s) in
  go (1 + Util.Rng.int rng 4) s

(* [count] mutants of [src] through [parse]; [typed e] accepts the
   parser's own errors.  Fails on the first mutant that escapes. *)
let total ?(seed = 2008) ?(count = 2000) ~typed (parse : string -> 'a) (src : string) =
  let rng = Util.Rng.create seed in
  for _ = 1 to count do
    let m = mutant rng src in
    match parse m with
    | (_ : 'a) -> ()
    | exception e when typed e -> ()
    | exception e -> Alcotest.failf "mutant %S raised %s" m (Printexc.to_string e)
  done

let never_raises (_ : exn) = false

(* A printed matmul quick kernel: loops, branches with reconvergence
   labels, parameters, shared and global memory. *)
let matmul_ptx =
  lazy
    (Ptx.Pp.kernel
       (Apps.Matmul.compile Apps.Matmul.smoke
          { Apps.Matmul.tile = 16; rect = 2; unroll = 4; prefetch = true; spill = false })
         .ptx)

(* A store record line without its newline. *)
let record key payload =
  let l = Tuner.Store.record_line key payload in
  String.sub l 0 (String.length l - 1)

let store_lines =
  let key = Digest.to_hex (Digest.string "totality") in
  [
    (key, Tuner.Store.payload_of "tile=16x16 rect=1x2" (Ok 1.25e-3));
    ( key,
      Tuner.Store.payload_of "tile=8x8 rect=1x4"
        (Error (Tuner.Fault.Watchdog_exceeded { issued = 4096; budget = 2048 })) );
    (key, Tuner.Store.payload_of_blob ~name:"predict/matmul" "model 3\nw 0x1.8p-2\n");
  ]

let rule_db =
  String.concat "\n"
    [
      "p quick 1 add.s32 %r1, %r0, 0; => mov.s32 %r1, %r0;";
      "p bounded 1 mul.f32 %f1, %f0, 1.0; => mov.f32 %f1, %f0;";
      "p exhaustive 1 mul.s32 %r1, %r0, 1; add.s32 %r2, %r1, 0; => mov.s32 %r2, %r0;";
      "";
    ]

(* Every wire message test_proto pins, optional fields absent and
   present, as the frame payload the decoders read. *)
let wire_frames =
  List.map (fun (r, _) -> Tuner.Proto.encode_request r) Test_proto.request_pins
  @ List.map (fun (r, _) -> Tuner.Proto.encode_response r) Test_proto.response_pins

(* What a mutant decodes to must survive its own re-encoding. *)
let reencodes decode encode eq m =
  match decode m with
  | Error (_ : Tuner.Proto.decode_error) -> ()
  | Ok v -> (
    match decode (encode v) with
    | Ok v' when eq v v' -> ()
    | Ok _ -> Alcotest.failf "%S re-encodes to %S, which decodes differently" m (encode v)
    | Error e ->
      Alcotest.failf "%S re-encodes to %S, which fails: %s" m (encode v)
        (Tuner.Proto.decode_error_to_string e))

let tests =
  [
    t "minicuda: mutants of saxpy.mcu parse or raise a typed error" (fun () ->
        ignore (Minicuda.Parser.parse Saxpy_src.text);
        total
          ~typed:(function
            | Minicuda.Lexer.Error _ | Minicuda.Parser.Error _ | Kir.Typecheck.Type_error _ ->
              true
            | _ -> false)
          Minicuda.Parser.parse Saxpy_src.text);
    t "ptx: mutants of a matmul kernel parse or raise Lexer/Parser.Error" (fun () ->
        let src = Lazy.force matmul_ptx in
        ignore (Ptx.Parser.kernel_of_string src);
        total
          ~typed:(function Ptx.Lexer.Error _ | Ptx.Parser.Error _ -> true | _ -> false)
          Ptx.Parser.kernel_of_string src);
    t "store: mutated record lines and payloads never raise" (fun () ->
        List.iteri
          (fun i (key, payload) ->
            let line = record key payload in
            Alcotest.(check bool) "base record parses" true
              (Result.is_ok (Tuner.Store.parse_record line));
            (* the framing and checksum ... *)
            total ~seed:(2008 + i) ~count:400 ~typed:never_raises Tuner.Store.parse_record line;
            (* ... and payloads behind a valid checksum *)
            total ~seed:(3008 + i) ~count:300 ~typed:never_raises
              (fun p -> Tuner.Store.parse_record (record key p))
              payload)
          store_lines);
    t "rule DB: mutants of a database never raise" (fun () ->
        Alcotest.(check int) "base database parses" 3
          (List.length (Ptx.Patterns.of_string rule_db));
        total ~typed:never_raises Ptx.Patterns.of_string rule_db);
    t "wire: mutated frames decode or fail typed, and what decodes re-encodes" (fun () ->
        List.iteri
          (fun i frame ->
            total ~seed:(4008 + i) ~count:800 ~typed:never_raises
              (fun m ->
                reencodes Tuner.Proto.decode_request Tuner.Proto.encode_request
                  Test_proto.req_eq m;
                reencodes Tuner.Proto.decode_response Tuner.Proto.encode_response
                  Test_proto.resp_eq m)
              frame)
          wire_frames);
  ]

let suite = [ ("totality", tests) ]
