(* Unit tests for [Util.Pool], the parallel map behind measurement.

   The tuner's determinism guarantee rests on [Pool.map] behaving as an
   order-preserving, exception-faithful [List.map]; these tests lock
   that contract down independently of the tuner. *)

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

exception Boom of int

let pool_tests =
  [
    t "map preserves input order" (fun () ->
        let xs = List.init 100 Fun.id in
        Alcotest.(check (list int))
          "squares in order"
          (List.map (fun x -> x * x) xs)
          (Util.Pool.map ~jobs:4 (fun x -> x * x) xs));
    t "jobs:1 is exactly List.map" (fun () ->
        (* Sequential fallback: side effects happen in list order on
           the calling domain, with no worker spawned. *)
        let trace = ref [] in
        let here = Domain.self () in
        let r =
          Util.Pool.map ~jobs:1
            (fun x ->
              trace := x :: !trace;
              check_b "runs on the calling domain" true (Domain.self () = here);
              x + 1)
            [ 1; 2; 3; 4 ]
        in
        Alcotest.(check (list int)) "result" [ 2; 3; 4; 5 ] r;
        Alcotest.(check (list int)) "evaluation order" [ 4; 3; 2; 1 ] !trace);
    t "exception propagates to the caller" (fun () ->
        Alcotest.check_raises "raises Boom" (Boom 7) (fun () ->
            ignore (Util.Pool.map ~jobs:4 (fun x -> if x = 7 then raise (Boom x) else x)
                      (List.init 20 Fun.id))));
    t "first exception in input order wins" (fun () ->
        Alcotest.check_raises "raises the earliest" (Boom 3) (fun () ->
            ignore
              (Util.Pool.map ~jobs:4
                 (fun x -> if x >= 3 then raise (Boom x) else x)
                 (List.init 10 Fun.id))));
    t "empty list" (fun () ->
        check_i "no elements" 0 (List.length (Util.Pool.map ~jobs:4 Fun.id []));
        check_i "jobs:1 empty" 0 (List.length (Util.Pool.map ~jobs:1 Fun.id [])));
    t "jobs greater than list length" (fun () ->
        Alcotest.(check (list int))
          "three elements, eight jobs" [ 2; 4; 6 ]
          (Util.Pool.map ~jobs:8 (fun x -> 2 * x) [ 1; 2; 3 ]));
    t "singleton list avoids domain spawn" (fun () ->
        let here = Domain.self () in
        let r =
          Util.Pool.map ~jobs:4
            (fun x ->
              check_b "on calling domain" true (Domain.self () = here);
              x * 10)
            [ 5 ]
        in
        Alcotest.(check (list int)) "result" [ 50 ] r);
    t "stress: 1000 small tasks across 4 domains" (fun () ->
        let xs = List.init 1000 Fun.id in
        let r = Util.Pool.map ~jobs:4 (fun x -> (x * 37) mod 1009) xs in
        Alcotest.(check (list int)) "matches List.map" (List.map (fun x -> (x * 37) mod 1009) xs) r);
    t "default_jobs respects GPUOPT_JOBS and stays >= 1" (fun () ->
        (* Only 1..max_jobs is taken; anything else falls back to the
           core count, kept in the same range.  No domain starts here. *)
        let saved = Sys.getenv_opt "GPUOPT_JOBS" in
        Fun.protect
          ~finally:(fun () -> Unix.putenv "GPUOPT_JOBS" (Option.value saved ~default:""))
          (fun () ->
            let jobs v =
              Unix.putenv "GPUOPT_JOBS" v;
              Util.Pool.default_jobs ()
            in
            let fallback = jobs "" in
            check_b "fallback in range" true (fallback >= 1 && fallback <= Util.Pool.max_jobs);
            Alcotest.(check int) "in range" 3 (jobs "3");
            Alcotest.(check int) "at the bound" Util.Pool.max_jobs
              (jobs (string_of_int Util.Pool.max_jobs));
            List.iter
              (fun v -> Alcotest.(check int) ("ignored: " ^ v) fallback (jobs v))
              [ "0"; "-2"; string_of_int (Util.Pool.max_jobs + 1); "100000"; "many" ]));
  ]

(* The crash-isolated map the fault-tolerant measurement engine builds
   on: one raising thunk costs its own slot, never its neighbors'. *)
let map_result_tests =
  [
    t "one crashing item, everyone else completes" (fun () ->
        let r =
          Util.Pool.map_result ~jobs:4
            (fun x -> if x = 5 then raise (Boom x) else x * 2)
            (List.init 10 Fun.id)
        in
        check_i "all items resolved" 10 (List.length r);
        List.iteri
          (fun i o ->
            match o with
            | Ok v -> check_i "survivor value" (i * 2) v
            | Error (Boom n, _) ->
              check_i "crash is item 5" 5 i;
              check_i "payload" 5 n
            | Error (e, _) -> raise e)
          r);
    t "all-crash input yields all Errors, in order" (fun () ->
        let r = Util.Pool.map_result ~jobs:3 (fun x -> raise (Boom x)) [ 0; 1; 2; 3 ] in
        List.iteri
          (fun i o ->
            match o with
            | Error (Boom n, bt) ->
              check_i "order preserved" i n;
              (* The backtrace slot is a string either way; content
                 depends on whether recording is on. *)
              check_b "backtrace is a string" true (String.length bt >= 0)
            | _ -> Alcotest.fail "expected Error")
          r);
    t "jobs:1 map_result isolates without domains" (fun () ->
        let here = Domain.self () in
        let r =
          Util.Pool.map_result ~jobs:1
            (fun x ->
              check_b "on calling domain" true (Domain.self () = here);
              if x = 1 then failwith "mid" else x)
            [ 0; 1; 2 ]
        in
        match r with
        | [ Ok 0; Error (Failure m, _); Ok 2 ] when m = "mid" -> ()
        | _ -> Alcotest.fail "unexpected shape");
    t "map over map_result: fault-free results unwrap" (fun () ->
        Alcotest.(check (list int))
          "same as List.map" [ 0; 2; 4; 6 ]
          (Util.Pool.map_result ~jobs:2 (fun x -> 2 * x) [ 0; 1; 2; 3 ]
          |> List.map (function Ok v -> v | Error (e, _) -> raise e)));
  ]

(* The map against its specification, over jobs 1..8, lists
   of 0..64 items and raising items wherever the generator puts them:
   [map_result] is [List.map] of the wrapped function, runs each item
   exactly once, on at most [min jobs n] domains (the calling one when
   it spawns none); [map] is [List.map] or re-raises the first failure
   in input order. *)
let arb_case =
  QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 64) bool))

let square_unless raises i = if raises.(i) then raise (Boom i) else i * i

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"map_result is List.map of the wrapped function (qcheck)" ~count:100
         arb_case (fun (jobs, raising) ->
           let raises = Array.of_list raising in
           let n = Array.length raises in
           let xs = List.init n Fun.id in
           let expected =
             List.map (fun i -> try Ok (square_unless raises i) with e -> Error e) xs
           in
           let runs = Array.init n (fun _ -> Atomic.make 0) in
           let ran_on = Array.make n (-1) in
           let got =
             Util.Pool.map_result ~jobs
               (fun i ->
                 Atomic.incr runs.(i);
                 ran_on.(i) <- (Domain.self () :> int);
                 square_unless raises i)
               xs
           in
           let domains = List.sort_uniq compare (Array.to_list ran_on) in
           List.map (Result.map_error fst) got = expected
           && Array.for_all (fun r -> Atomic.get r = 1) runs
           && List.length domains <= max 1 (min jobs n)
           && (jobs > 1 && n > 1 || List.for_all (( = ) (Domain.self () :> int)) domains)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"map re-raises the first failure in input order (qcheck)" ~count:100
         arb_case (fun (jobs, raising) ->
           let raises = Array.of_list raising in
           let xs = List.init (Array.length raises) Fun.id in
           match Util.Pool.map ~jobs (square_unless raises) xs with
           | ys -> (not (Array.mem true raises)) && ys = List.map (fun i -> i * i) xs
           | exception Boom i -> List.find_opt (fun j -> raises.(j)) xs = Some i));
  ]

let suite =
  [
    ("util.pool", pool_tests);
    ("util.pool.map_result", map_result_tests);
    ("util.pool.properties", property_tests);
  ]
