(* Metric values and the one output schema.

   Every metric is a value plus the samples it was computed from, so
   the report can state the sample count, median and quartiles next to
   the value.  Both output lines are built as [Util.Json] values: a
   full report line first, then the summary line the benchmark
   contract reads (it must be the last line of standard output). *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float array;  (* what [value] summarises; [| value |] for a single figure *)
}

let single name unit_ value = { name; unit_; value; samples = [| value |] }

(* Linear-interpolation quantile of sorted [xs] at [q] in [0, 1]. *)
let quantile_sorted (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    xs.(lo) +. ((h -. float_of_int lo) *. (xs.(hi) -. xs.(lo)))

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, and how many samples lie above it. *)
let percentile (xs : float array) (p : float) : float * int =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    (a.(rank - 1), n - rank)

let median xs = quantile_sorted (sorted xs) 0.5

let metric_json (m : metric) : Util.Json.t =
  let a = sorted m.samples in
  Util.Json.Obj
    [
      ("name", Str m.name);
      ("unit", Str m.unit_);
      ("value", Float m.value);
      ("samples", Int (Array.length a));
      ("median", Float (quantile_sorted a 0.5));
      ("q1", Float (quantile_sorted a 0.25));
      ("q3", Float (quantile_sorted a 0.75));
    ]

(* The last line: {"correct", "attempted", "failed", "metrics"}. *)
let summary_json ~correct ~attempted ~failed (ms : metric list) : Util.Json.t =
  Util.Json.Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun m -> (m.name, Util.Json.Obj [ ("value", Float m.value); ("unit", Str m.unit_) ]))
             ms) );
    ]

(* ------------------------------------------------------------------ *)
(* Accumulators the workloads fill                                     *)
(* ------------------------------------------------------------------ *)

(* Per-layer sums by metric name. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 64
let add (a : acc) k v = Hashtbl.replace a k (Option.value (Hashtbl.find_opt a k) ~default:0.0 +. v)
let addi a k n = add a k (float_of_int n)
let get (a : acc) k = Option.value (Hashtbl.find_opt a k) ~default:0.0

(* Operations attempted and failed; an operation fails when any of its
   output checks does. *)
type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let tally () = { attempted = 0; failed = 0; failures = [] }

(* Adds [t]'s operations to [into]. *)
let merge_tally (into : tally) (t : tally) : unit =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.failures <- t.failures @ into.failures

let operation (t : tally) (what : string) (checks : (bool * string) list) : unit =
  t.attempted <- t.attempted + 1;
  match List.filter (fun (ok, _) -> not ok) checks with
  | [] -> ()
  | bad ->
    t.failed <- t.failed + 1;
    List.iter (fun (_, msg) -> t.failures <- (what ^ ": " ^ msg) :: t.failures) bad

(* The process's resident high-water mark (VmHWM).  The OCaml 5
   runtime's [top_heap_words] is no high-water mark once domains have
   come and gone (it can fall during a run), so the kernel's figure is
   used. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match kb with Some kb -> float_of_int kb /. 1024.0 | None -> Float.nan
