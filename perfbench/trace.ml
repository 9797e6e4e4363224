(* In-memory span recorder for the traced run.

   Spans are taken by the benchmark around its own calls into each
   layer's public functions.  A span records its layer name, start,
   end, parent and request id.  A layer that is reached only through
   another (the store inside [Measure], [Metrics] inside [Search]) is
   timed by a replay: the benchmark calls that layer's entry point on
   the same inputs under a "replay" span and attributes the measured
   cost to the enclosing span, whose self time shrinks by as much.

   A layer's self time is the sum over its spans of the duration minus
   the child spans and the attributed replays.  Replay spans are kept
   for inspection but excluded from the layer sums: they are the cost
   of tracing, and the primary wall time they are reconciled against
   excludes them too.  Recording is single-domain: the traced run uses
   one job. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at the root *)
  req : int;  (* request or item id; -1 when not tied to one *)
  t0 : float;
  t1 : float;
  replay : bool;
}

type t = {
  mutable spans : span list;  (* most recent first *)
  mutable next : int;
  mutable stack : (int * bool) list;  (* open span ids, innermost first, with replay flag *)
  attributed : (int, (string * float) list) Hashtbl.t;  (* span id -> inner layer costs *)
  mutable replay_s : float;  (* wall seconds spent in outermost [aside] spans *)
}

let create () =
  { spans = []; next = 0; stack = []; attributed = Hashtbl.create 64; replay_s = 0.0 }
let now = Unix.gettimeofday

(* Run [f] under a span; returns its result and the span id.  Spans
   opened under a replay span are replay spans too. *)
let span_id t ?(req = -1) ?(replay = false) (name : string) (f : unit -> 'a) : 'a * int =
  let id = t.next in
  t.next <- id + 1;
  let parent, inherited = match t.stack with (p, r) :: _ -> (p, r) | [] -> (-1, false) in
  let replay = replay || inherited in
  t.stack <- (id, replay) :: t.stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; req; t0; t1; replay } :: t.spans
  in
  match f () with
  | y ->
    finish ();
    (y, id)
  | exception e ->
    finish ();
    raise e

let span t ?req ?replay name f = fst (span_id t ?req ?replay name f)

(* Work outside the tuner's layers, timed under a span that is left out
   of the layer sums and of the primary wall time: replays and the
   benchmark's own bookkeeping.  Returns the duration too. *)
let aside t ?req name (f : unit -> 'a) : 'a * float =
  let outermost = not (List.exists snd t.stack) in
  let t0 = now () in
  let y = span t ?req ~replay:true name f in
  let dt = now () -. t0 in
  if outermost then t.replay_s <- t.replay_s +. dt;
  (y, dt)

(* A replay of an inner layer; the caller [attribute]s its duration. *)
let replay t ?req name f = aside t ?req ("replay." ^ name) f

(* Charge [seconds] of span [id]'s duration to [layer]. *)
let attribute t (id : int) (layer : string) (seconds : float) : unit =
  let prev = Option.value (Hashtbl.find_opt t.attributed id) ~default:[] in
  Hashtbl.replace t.attributed id ((layer, seconds) :: prev)

(* Self seconds per layer over the non-replay spans, largest first. *)
let layer_self t : (string * float) list =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 16 in
  let add layer v =
    Hashtbl.replace acc layer (Option.value (Hashtbl.find_opt acc layer) ~default:0.0 +. v)
  in
  List.iter
    (fun s ->
      if not s.replay then begin
        let inner = Option.value (Hashtbl.find_opt t.attributed s.id) ~default:[] in
        let charged = List.fold_left (fun a (_, v) -> a +. v) 0.0 inner in
        let children = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
        add s.name (s.t1 -. s.t0 -. children -. charged);
        List.iter (fun (l, v) -> add l v) inner
      end)
    t.spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort (fun (_, a) (_, b) -> compare b a)

let to_json t : Util.Json.t =
  let open Util.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", Str s.name);
             ("parent", Int s.parent);
             ("req", Int s.req);
             ("start", Float s.t0);
             ("end", Float s.t1);
             ("replay", Bool s.replay);
           ])
       t.spans)

let write t (file : string) : unit =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Util.Json.to_string (to_json t)))
