(* The reference job of the host-speed adjustment (see [Calib]), run in
   a process of its own so that the benchmark's heap does not weigh on
   it.

     reference.exe N

   runs the job N times back to back and prints the median time in
   seconds.  The job uses only the OCaml standard library, so no change
   to the tuner can change its cost.  It mixes what the tuner spends its
   time on: balanced trees and hash tables of fresh boxed values, as the
   compiler builds, and a loop over a float array with data-dependent
   branches, as the simulator runs. *)

module IM = Map.Make (Int)

let job () : int =
  let x = ref 0x2545F491 in
  let next () =
    x := (!x * 1103515245) + 12345;
    (!x lsr 16) land 0x3FFFFFFF
  in
  let m = ref IM.empty and h = Hashtbl.create 1024 in
  for i = 1 to 40_000 do
    let k = next () land 0xFFFF in
    m := IM.add k (i, float_of_int k) !m;
    Hashtbl.replace h (k land 0xFFF) [ i; k ]
  done;
  let a = Array.init 4096 (fun _ -> float_of_int (next () land 0xFFFF)) in
  let acc = ref 0.0 in
  for r = 1 to 150 do
    for i = 0 to Array.length a - 1 do
      let v = a.(i) in
      if v > 32768.0 then acc := !acc +. (v *. 0.5) else acc := !acc -. (v /. float_of_int r)
    done
  done;
  let sorted = List.sort compare (IM.fold (fun k (i, _) l -> (k lxor i) :: l) !m []) in
  IM.cardinal !m + Hashtbl.length h + List.length sorted + (int_of_float !acc land 1)

let () =
  let n = match Sys.argv with [| _; n |] -> int_of_string n | _ -> 3 in
  let sink = ref 0 in
  let time () =
    let t0 = Unix.gettimeofday () in
    sink := !sink + job ();
    Unix.gettimeofday () -. t0
  in
  let a = Array.init (max 1 n) (fun _ -> time ()) in
  Array.sort compare a;
  Printf.printf "%.9f %d\n" a.(Array.length a / 2) (!sink land 1)
