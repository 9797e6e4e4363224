(* Content-addressed result store battery: digest stability, exact
   round-trips through the on-disk format, concurrent writers, and loud
   rejection of damaged records. *)

module S = Tuner.Store

let t name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let with_tmp (f : string -> 'a) : 'a =
  let file = Filename.temp_file "gpuopt-store-test-" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let with_store (f : string -> S.t -> 'a) : 'a =
  with_tmp (fun file ->
      let s = S.open_ ~file () in
      Fun.protect ~finally:(fun () -> S.close s) (fun () -> f file s))

(* A synthetic but well-formed 32-hex-char key. *)
let key_of (i : int) : string = Digest.to_hex (Digest.string (string_of_int i))

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let digest_tests =
  [
    t "digests are stable across sessions (pure functions of content)" (fun () ->
        (* Two independently built candidate lists for the same app and
           scale must digest identically — nothing about physical
           identity, closure allocation or build order may leak in. *)
        let e = Option.get (Apps.Registry.find "matmul") in
        let c1 = e.quick_candidates () and c2 = e.quick_candidates () in
        let arch = S.arch_digest () in
        Alcotest.(check string) "arch digest deterministic" arch (S.arch_digest ());
        let descs cs =
          List.filter_map
            (fun (c : Tuner.Candidate.t) -> if c.valid then Some c.desc else None)
            cs
        in
        let sp1 = S.space_digest ~app_name:"matmul" ~scale:"quick" (descs c1) in
        let sp2 = S.space_digest ~app_name:"matmul" ~scale:"quick" (descs c2) in
        Alcotest.(check string) "space digest stable" sp1 sp2;
        List.iter2
          (fun (a : Tuner.Candidate.t) (b : Tuner.Candidate.t) ->
            Alcotest.(check string) ("kernel digest stable: " ^ a.desc) (S.kernel_digest a)
              (S.kernel_digest b);
            Alcotest.(check string) ("key stable: " ^ a.desc)
              (S.candidate_key ~arch ~space:sp1 a)
              (S.candidate_key ~arch ~space:sp2 b))
          c1 c2);
    t "digests separate what must not share measurements" (fun () ->
        let e = Option.get (Apps.Registry.find "matmul") in
        let cands = e.quick_candidates () in
        let descs =
          List.filter_map
            (fun (c : Tuner.Candidate.t) -> if c.valid then Some c.desc else None)
            cands
        in
        let quick = S.space_digest ~app_name:"matmul" ~scale:"quick" descs in
        let full = S.space_digest ~app_name:"matmul" ~scale:"full" descs in
        Alcotest.(check bool) "scale is part of the space digest" false (quick = full);
        let other = S.space_digest ~app_name:"cp" ~scale:"quick" descs in
        Alcotest.(check bool) "app is part of the space digest" false (quick = other);
        match cands with
        | a :: b :: _ ->
          Alcotest.(check bool) "distinct candidates, distinct kernels" false
            (S.kernel_digest a = S.kernel_digest b)
        | _ -> Alcotest.fail "expected at least two candidates");
  ]

(* ------------------------------------------------------------------ *)
(* Round-trips                                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip_tests =
  [
    qt
      (QCheck.Test.make
         ~name:"put/get survives close + reopen with times bit-exact (qcheck)" ~count:30
         QCheck.(
           small_list
             (pair small_nat
                (oneof
                   [
                     float;
                     oneofl
                       [
                         Float.nan;
                         Int64.float_of_bits 0xFFF0DEADBEEF0001L;
                         Float.infinity;
                         0x1.fffffep+127;
                         0x1p-149;
                         -0.0;
                         1e-300;
                       ];
                   ])))
         (fun entries ->
           (* In the real system a key determines its outcome; the store
              is first-write-wins, so keep the first value per key. *)
           let entries =
             List.rev
               (List.fold_left
                  (fun acc (i, t) -> if List.mem_assoc i acc then acc else (i, t) :: acc)
                  [] entries)
           in
           with_tmp (fun file ->
               let s = S.open_ ~file () in
               List.iter
                 (fun (i, time) -> S.put s ~key:(key_of i) ~desc:(Printf.sprintf "cfg-%d" i) (Ok time))
                 entries;
               S.close s;
               let s' = S.open_ ~file () in
               Fun.protect
                 ~finally:(fun () -> S.close s')
                 (fun () ->
                   S.corrupt_entries s' = []
                   && List.for_all
                        (fun (i, time) ->
                          match S.get s' (key_of i) with
                          | Some (Ok time') -> feq time time'
                          | _ -> false)
                        entries))));
    t "fault outcomes round-trip through the journal encoding" (fun () ->
        let faults =
          [
            Tuner.Fault.Compile_error { stage = "unroll"; reason = "bad \"quoted\"\nreason" };
            Tuner.Fault.Verify_rejected { stage = "coalesce"; reason = "mismatch at 3" };
            Tuner.Fault.Launch_error { reason = "too many threads" };
            Tuner.Fault.Sim_trap { reason = "out-of-bounds load" };
            Tuner.Fault.Watchdog_exceeded { issued = 100001; budget = 100000 };
            Tuner.Fault.Worker_crash { exn_name = "Stack_overflow"; backtrace = "" };
          ]
        in
        with_tmp (fun file ->
            let s = S.open_ ~file () in
            List.iteri (fun i fa -> S.put s ~key:(key_of i) ~desc:"d" (Error fa)) faults;
            S.close s;
            let s' = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s')
              (fun () ->
                Alcotest.(check int) "all loaded" (List.length faults) (S.loaded s');
                List.iteri
                  (fun i fa ->
                    match S.get s' (key_of i) with
                    | Some (Error fa') ->
                      Alcotest.(check string) "fault preserved" (Tuner.Fault.to_journal fa)
                        (Tuner.Fault.to_journal fa')
                    | _ -> Alcotest.fail "fault entry lost")
                  faults)));
    t "put is first-write-wins and get/mem agree" (fun () ->
        with_store (fun _file s ->
            S.put s ~key:(key_of 1) ~desc:"d" (Ok 1.0);
            S.put s ~key:(key_of 1) ~desc:"d" (Ok 2.0);
            Alcotest.(check int) "one entry" 1 (S.entries s);
            Alcotest.(check bool) "mem" true (S.mem s (key_of 1));
            Alcotest.(check bool) "absent key" false (S.mem s (key_of 2));
            match S.get s (key_of 1) with
            | Some (Ok x) -> Alcotest.(check (float 0.0)) "first write kept" 1.0 x
            | _ -> Alcotest.fail "entry lost"));
    t "put on a closed store is refused" (fun () ->
        with_tmp (fun file ->
            let s = S.open_ ~file () in
            S.close s;
            match S.put s ~key:(key_of 1) ~desc:"d" (Ok 1.0) with
            | () -> Alcotest.fail "put succeeded on a closed store"
            | exception Invalid_argument _ -> ()));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrency                                                         *)
(* ------------------------------------------------------------------ *)

let concurrency_tests =
  [
    t "concurrent writers from N domains leave a consistent store" (fun () ->
        with_tmp (fun file ->
            let s = S.open_ ~file () in
            let n = 200 in
            (* Four domains race 200 puts, with every key written twice
               (two writers per key) to exercise the already-present
               path under contention. *)
            let work = List.init (2 * n) (fun i -> i mod n) in
            ignore
              (Util.Pool.map ~jobs:4
                 (fun i ->
                   S.put s ~key:(key_of i) ~desc:(Printf.sprintf "cfg-%d" i)
                     (Ok (float_of_int i *. 0x1p-20)))
                 work
                : unit list);
            S.close s;
            let s' = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s')
              (fun () ->
                Alcotest.(check (list (pair int string))) "no record damaged" []
                  (List.map
                     (fun (c : S.corrupt_line) -> (c.cl_line, c.cl_reason))
                     (S.corrupt_entries s'));
                Alcotest.(check int) "every key present exactly once" n (S.entries s');
                for i = 0 to n - 1 do
                  match S.get s' (key_of i) with
                  | Some (Ok x) ->
                    if not (feq x (float_of_int i *. 0x1p-20)) then
                      Alcotest.failf "key %d: wrong time" i
                  | _ -> Alcotest.failf "key %d lost" i
                done)));
  ]

(* ------------------------------------------------------------------ *)
(* Corruption                                                          *)
(* ------------------------------------------------------------------ *)

(* Rewrite one line of a file in place. *)
let mangle_line file lineno (f : string -> string option) : unit =
  let lines = In_channel.with_open_text file In_channel.input_lines in
  let lines' =
    List.concat (List.mapi (fun i l -> if i = lineno then Option.to_list (f l) else [ l ]) lines)
  in
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines')

let fill_store file n =
  let s = S.open_ ~file () in
  for i = 0 to n - 1 do
    S.put s ~key:(key_of i) ~desc:(Printf.sprintf "cfg-%d" i) (Ok (float_of_int i))
  done;
  S.close s

let corruption_tests =
  [
    t "a bit-flipped record is rejected loudly and skipped; the rest load" (fun () ->
        with_tmp (fun file ->
            fill_store file 10;
            (* line 0 is the header; flip a payload byte of entry 3 *)
            mangle_line file 4 (fun l ->
                let b = Bytes.of_string l in
                let p = Bytes.length b - 1 in
                Bytes.set b p (if Bytes.get b p = '0' then '1' else '0');
                Some (Bytes.to_string b));
            let s = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s)
              (fun () ->
                (match S.corrupt_entries s with
                | [ { cl_line = 5; cl_reason } ] ->
                  Alcotest.(check bool) "reason names the checksum" true
                    (String.length cl_reason > 0
                    && String.sub cl_reason 0 8 = "checksum")
                | other -> Alcotest.failf "expected 1 corrupt line, got %d" (List.length other));
                Alcotest.(check int) "nine healthy entries" 9 (S.loaded s))));
    t "a truncated record (torn write) is rejected and skipped" (fun () ->
        with_tmp (fun file ->
            fill_store file 5;
            mangle_line file 3 (fun l -> Some (String.sub l 0 (String.length l / 2)));
            let s = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s)
              (fun () ->
                Alcotest.(check int) "one rejection" 1 (List.length (S.corrupt_entries s));
                Alcotest.(check int) "four healthy entries" 4 (S.loaded s))));
    t "garbage lines are rejected per line, never fatal" (fun () ->
        with_tmp (fun file ->
            fill_store file 3;
            mangle_line file 2 (fun _ -> Some "x totally not a record");
            let s = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s)
              (fun () ->
                Alcotest.(check int) "one rejection" 1 (List.length (S.corrupt_entries s));
                Alcotest.(check int) "two healthy entries" 2 (S.loaded s);
                (* and the store still accepts appends afterwards *)
                S.put s ~key:(key_of 99) ~desc:"post" (Ok 9.0);
                Alcotest.(check int) "append after damage" 3 (S.entries s))));
    t "a path the system refuses is Bad_file with its reason, and nothing is created" (fun () ->
        with_tmp (fun file ->
            let refused what path reason f =
              match f () with
              | _ -> Alcotest.failf "%s accepted %s" what path
              | exception S.Bad_file { file = f; reason = r } ->
                Alcotest.(check string) (what ^ ": error names the path") path f;
                Alcotest.(check string) (what ^ ": the system's reason") reason r
            in
            List.iter
              (fun (path, e) ->
                let reason = Unix.error_message e in
                refused "open_" path reason (fun () -> ignore (S.open_ ~file:path () : S.t));
                refused "fsck" path reason (fun () -> ignore (S.fsck ~file:path : S.fsck_report));
                Alcotest.(check bool) "nothing created" false (Sys.file_exists path))
              [
                (* a component that is a regular file *)
                (Filename.concat file "x.store", Unix.ENOTDIR);
                (* a directory that does not exist *)
                (Filename.concat (file ^ ".d") "x.store", Unix.ENOENT);
              ];
            refused "fsck" (file ^ ".missing") (Unix.error_message Unix.ENOENT) (fun () ->
                ignore (S.fsck ~file:(file ^ ".missing") : S.fsck_report))));
    t "a foreign header is refused outright" (fun () ->
        with_tmp (fun file ->
            Out_channel.with_open_text file (fun oc ->
                Out_channel.output_string oc "some other format v9\n");
            match S.open_ ~file () with
            | (_ : S.t) -> Alcotest.fail "foreign file accepted"
            | exception S.Bad_file { file = f; reason } ->
              Alcotest.(check string) "error names the file" file f;
              Alcotest.(check string) "error names the header"
                (Printf.sprintf "foreign header %S, expected %S" "some other format v9" S.magic)
                reason));
  ]

(* ------------------------------------------------------------------ *)
(* Durability, torn writes, fsck and compaction                        *)
(* ------------------------------------------------------------------ *)

let write_prefix ~(src : string) ~(dst : string) (len : int) : unit =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc (String.sub s 0 len))

let hardening_tests =
  [
    t "a torn final record recovers the completed prefix at every cut offset" (fun () ->
        (* The crash-recovery proof: kill -9 lands mid-append, so the
           file ends at an arbitrary byte of the record being written.
           For EVERY such offset, reopening must yield exactly the
           completed records, report the torn tail, and never raise;
           and the restarted writer's first record must survive the
           next reopen next to them. *)
        with_tmp (fun file ->
            fill_store file 4;
            let full = In_channel.with_open_bin file In_channel.input_all in
            let before_last = String.rindex_from full (String.length full - 2) '\n' + 1 in
            with_tmp (fun torn ->
                let append_and_reopen what ~prefix ~corrupt =
                  let s = S.open_ ~file:torn () in
                  S.put s ~key:(key_of 100) ~desc:"post-restart" (Ok 100.0);
                  S.close s;
                  let s = S.open_ ~file:torn () in
                  Fun.protect
                    ~finally:(fun () -> S.close s)
                    (fun () ->
                      Alcotest.(check int)
                        (what ^ ": completed prefix plus the new record")
                        (prefix + 1) (S.loaded s);
                      for i = 0 to prefix - 1 do
                        if not (S.mem s (key_of i)) then Alcotest.failf "%s: key %d lost" what i
                      done;
                      Alcotest.(check bool)
                        (what ^ ": new record kept") true
                        (S.get s (key_of 100) = Some (Ok 100.0));
                      Alcotest.(check int)
                        (what ^ ": torn fragment stays one corrupt line")
                        corrupt
                        (List.length (S.corrupt_entries s)))
                in
                (* a cut that loses only the trailing newline leaves the
                   whole record on disk: that one must fully recover *)
                write_prefix ~src:file ~dst:torn (String.length full - 1);
                let s = S.open_ ~file:torn () in
                Fun.protect
                  ~finally:(fun () -> S.close s)
                  (fun () ->
                    Alcotest.(check int) "newline-only tear: all records recover" 4 (S.loaded s));
                append_and_reopen "newline-only tear" ~prefix:4 ~corrupt:0;
                for cut = before_last to String.length full - 2 do
                  write_prefix ~src:file ~dst:torn cut;
                  let s = S.open_ ~file:torn () in
                  Fun.protect
                    ~finally:(fun () -> S.close s)
                    (fun () ->
                      Alcotest.(check int)
                        (Printf.sprintf "cut %d: completed prefix intact" cut)
                        3 (S.loaded s);
                      for i = 0 to 2 do
                        match S.get s (key_of i) with
                        | Some (Ok x) ->
                          if not (feq x (float_of_int i)) then
                            Alcotest.failf "cut %d: key %d read back wrong" cut i
                        | _ -> Alcotest.failf "cut %d: key %d lost" cut i
                      done;
                      Alcotest.(check bool)
                        (Printf.sprintf "cut %d: torn key absent" cut)
                        false (S.mem s (key_of 3));
                      Alcotest.(check int)
                        (Printf.sprintf "cut %d: torn tail reported" cut)
                        (if cut > before_last then 1 else 0)
                        (List.length (S.corrupt_entries s)));
                  append_and_reopen (Printf.sprintf "cut %d" cut) ~prefix:3
                    ~corrupt:(if cut > before_last then 1 else 0)
                done)));
    t "durable appends read back bit-exact after close and reopen" (fun () ->
        with_tmp (fun file ->
            let s = S.open_ ~durable:true ~file () in
            for i = 0 to 9 do
              S.put s ~key:(key_of i) ~desc:(Printf.sprintf "cfg-%d" i)
                (Ok (float_of_int i *. 0x1p-7))
            done;
            S.close s;
            let s' = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s')
              (fun () ->
                Alcotest.(check int) "all durable entries loaded" 10 (S.loaded s');
                for i = 0 to 9 do
                  match S.get s' (key_of i) with
                  | Some (Ok x) ->
                    if not (feq x (float_of_int i *. 0x1p-7)) then
                      Alcotest.failf "durable key %d read back wrong" i
                  | _ -> Alcotest.failf "durable key %d lost" i
                done)));
    t "fsck counts duplicates and corruption; compact reclaims exactly that" (fun () ->
        with_tmp (fun file ->
            fill_store file 6;
            (* replayed append: duplicate key 2's line at the tail *)
            let lines = In_channel.with_open_text file In_channel.input_lines in
            let dup = List.nth lines 3 in
            Out_channel.with_open_gen
              [ Open_append; Open_wronly ]
              0o644 file
              (fun oc -> Out_channel.output_string oc (dup ^ "\n"));
            (* torn write: truncate key 4's line *)
            mangle_line file 5 (fun l -> Some (String.sub l 0 (String.length l - 3)));
            let r = S.fsck ~file in
            Alcotest.(check int) "records scanned" 7 r.S.fs_records;
            Alcotest.(check int) "valid keys" 5 r.S.fs_valid;
            Alcotest.(check int) "duplicates" 1 r.S.fs_duplicates;
            Alcotest.(check int) "corrupt lines" 1 (List.length r.S.fs_corrupt);
            Alcotest.(check bool) "reclaimable bytes positive" true (r.S.fs_reclaimable > 0);
            let _r2, reclaimed = S.compact ~file in
            Alcotest.(check int) "compact reclaims what fsck promised" r.S.fs_reclaimable
              reclaimed;
            let r3 = S.fsck ~file in
            Alcotest.(check int) "clean after compact: nothing reclaimable" 0 r3.S.fs_reclaimable;
            Alcotest.(check int) "clean after compact: no corruption" 0
              (List.length r3.S.fs_corrupt);
            Alcotest.(check int) "clean after compact: no duplicates" 0 r3.S.fs_duplicates;
            let s = S.open_ ~file () in
            Fun.protect
              ~finally:(fun () -> S.close s)
              (fun () ->
                Alcotest.(check int) "survivors load" 5 (S.loaded s);
                Alcotest.(check bool) "corrupt key gone" false (S.mem s (key_of 4));
                List.iter
                  (fun i ->
                    match S.get s (key_of i) with
                    | Some (Ok x) ->
                      if not (feq x (float_of_int i)) then
                        Alcotest.failf "key %d wrong after compact" i
                    | _ -> Alcotest.failf "key %d lost by compact" i)
                  [ 0; 1; 2; 3; 5 ])));
    t "a repeated key answers its first record, before and after compact" (fun () ->
        with_tmp (fun file ->
            let key = key_of 7 in
            Out_channel.with_open_text file (fun oc ->
                Out_channel.output_string oc (S.magic ^ "\n");
                List.iter
                  (fun x ->
                    Out_channel.output_string oc (S.record_line key (S.payload_of "cfg" (Ok x))))
                  [ 1.0; 2.0 ]);
            let answer () =
              let s = S.open_ ~file () in
              Fun.protect ~finally:(fun () -> S.close s) (fun () -> S.get s key)
            in
            let is_first = function Some (Ok x) -> feq x 1.0 | _ -> false in
            Alcotest.(check bool) "first record wins on load" true (is_first (answer ()));
            let r, _ = S.compact ~file in
            Alcotest.(check int) "compact drops the duplicate" 1 r.S.fs_duplicates;
            Alcotest.(check bool) "compact keeps the same record" true (is_first (answer ()))));
    qt
      (QCheck.Test.make
         ~name:"4-domain appends + a kill truncation lose at most the torn tail (qcheck)"
         ~count:15
         QCheck.(pair (int_bound 1_000_000) (int_bound 16))
         (fun (cutseed, extra) ->
           with_tmp (fun file ->
               let n = 24 + extra in
               let s = S.open_ ~file () in
               ignore
                 (Util.Pool.map ~jobs:4
                    (fun i ->
                      S.put s ~key:(key_of i) ~desc:(Printf.sprintf "cfg-%d" i)
                        (Ok (float_of_int i *. 0x1p-10)))
                    (List.init n Fun.id)
                   : unit list);
               S.close s;
               let full = In_channel.with_open_bin file In_channel.input_all in
               let hdr = String.index full '\n' + 1 in
               let cut = hdr + (cutseed mod (String.length full - hdr + 1)) in
               with_tmp (fun torn ->
                   write_prefix ~src:file ~dst:torn cut;
                   let s' = S.open_ ~file:torn () in
                   Fun.protect
                     ~finally:(fun () -> S.close s')
                     (fun () ->
                       (* one truncation can damage at most the record it
                          landed in, and anything that survives reads
                          back exactly as written *)
                       List.length (S.corrupt_entries s') <= 1
                       && List.for_all
                            (fun i ->
                              match S.get s' (key_of i) with
                              | None -> true
                              | Some (Ok x) -> feq x (float_of_int i *. 0x1p-10)
                              | Some (Error _) -> false)
                            (List.init n Fun.id))))));
  ]

let suite =
  [
    ( "store",
      digest_tests @ roundtrip_tests @ concurrency_tests @ corruption_tests @ hardening_tests );
  ]
