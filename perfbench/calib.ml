(* The host-speed adjustment.

   This benchmark runs on shared hosts whose speed drifts by a fifth or
   more over minutes, as other tenants come and go.  So the benchmark
   times a fixed reference job ([Reference], in a process of its own)
   next to the tuner's work and reports each time figure twice: as
   measured on the wall clock, and adjusted to a standard host, on
   which the reference job takes [nominal_s]:

     adjusted time = wall time * nominal_s / reference time

   No change to the tuner can change the reference job's cost, so a
   change that makes the tuner faster moves the adjusted figures as
   much as the wall-clock ones. *)

let nominal_s = 0.05

let exe = lazy (Filename.concat (Filename.dirname Sys.executable_name) "reference.exe")

(* Seconds the reference job takes now: the median of three back-to-back
   runs (about 0.15 s in all), so one preemption does not decide it. *)
let sample () : float =
  let exe = Lazy.force exe in
  let ic = Unix.open_process_args_in exe [| exe; "3" |] in
  let line = Fun.protect ~finally:(fun () -> ignore (Unix.close_process_in ic)) (fun () -> input_line ic) in
  Scanf.sscanf line "%f %d" (fun t _ -> t)
