(* Wire protocol of the tuning service: framing and typed messages.

   A connection carries a sequence of frames, each a 4-byte big-endian
   unsigned length followed by that many bytes of JSON.  The module is
   pure — framing works over strings and positions, messages encode to
   and decode from JSON text — so every protocol property (round-trip,
   rejection of truncated or oversized or garbage input) is unit-testable
   without a socket, and the daemon's network loop reduces to "read
   bytes, call a total function".

   Each message shape is described once, as a codec value: its fields
   in wire order, each with its name, how its value travels and what
   its absence means.  The encoder and the decoder are both derived
   from that description, so the two directions cannot drift apart.

   Decoding is total: any input produces either a message or a typed
   error ([frame_error] / [decode_error]), never an exception.  That is
   the daemon's first line of defense — a malicious or confused client
   must not be able to crash or hang the server with bytes alone.  A
   message with several faults is reported by its first in wire order,
   and a named field holding the wrong kind of value names itself
   (["field \"best\" is not an object"]).

   Floats (simulated seconds, reduction fractions) travel as
   hexadecimal-float strings ("0x1.8p-3"), not JSON numbers: the store
   and the bit-identical-replay guarantees need exact round-trips, and
   decimal number printing is lossy.  [Hexfloat] spells the encoding —
   %h for everything finite plus the infinities, raw IEEE bits for NaN
   payloads ("nan#7ff8000000000001"). *)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* Frames above this are rejected before any allocation: a stray or
   hostile length prefix must not make the server allocate gigabytes. *)
let default_max_frame = 16 * 1024 * 1024

type frame_error =
  | Oversized of { frame_len : int; max_len : int }
  | Truncated of { have : int; want : int }
      (* the stream ended inside a frame: [want] more bytes were due *)

let frame_error_to_string = function
  | Oversized { frame_len; max_len } ->
    Printf.sprintf "oversized frame: %d bytes declared, limit %d" frame_len max_len
  | Truncated { have; want } ->
    Printf.sprintf "truncated frame: %d byte(s) present, %d more expected" have want

let frame (payload : string) : string =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Declared length of the frame starting at [pos]; needs 4 bytes. *)
let frame_len (buf : string) ~(pos : int) : int =
  (Char.code buf.[pos] lsl 24)
  lor (Char.code buf.[pos + 1] lsl 16)
  lor (Char.code buf.[pos + 2] lsl 8)
  lor Char.code buf.[pos + 3]

(* Examine [buf] from [pos]:
   - [`Frame (payload, next)]: one complete frame; resume at [next];
   - [`Need k]: the buffer ends cleanly but [k] more bytes are needed
     to complete the frame in progress (k = 4 when no header has
     started) — feed more input and retry;
   - [`Error]: the declared length exceeds [default_max_frame]; the
     stream is unrecoverable from here. *)
let peek_frame (buf : string) ~(pos : int) :
    [ `Frame of string * int | `Need of int | `Error of frame_error ] =
  let n = String.length buf in
  if pos + 4 > n then `Need (pos + 4 - n)
  else
    let len = frame_len buf ~pos in
    if len > default_max_frame then
      `Error (Oversized { frame_len = len; max_len = default_max_frame })
    else if pos + 4 + len > n then `Need (pos + 4 + len - n)
    else `Frame (String.sub buf (pos + 4) len, pos + 4 + len)

(* [`Need k] describes an incomplete stream; a closed connection turns
   it into the terminal [Truncated] error (or a clean end at k = 4 with
   nothing buffered). *)
let at_eof ~(pending : int) ~(need : int) : frame_error option =
  if pending = 0 && need = 4 then None else Some (Truncated { have = pending; want = need })

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(* The wire name of [v] in a closed table of names. *)
let name_in (table : (string * 'a) list) (v : 'a) : string =
  fst (List.find (fun (_, x) -> x = v) table)

type scale = Quick | Bench | Full

let scales = [ ("quick", Quick); ("bench", Bench); ("full", Full) ]
let scale_name = name_in scales
let scale_of_name n = List.assoc_opt n scales

type chaos_spec = { ch_seed : int; ch_count : int }

(* [arch] names a registry machine model ([Gpu.Arch.find]); [None]
   means the default G80, and is what pre-registry clients send — the
   field is simply absent from their frames. *)
type tune_request = { app : string; scale : scale; arch : string option; deadline_ms : int option }

type explore_request = {
  app : string;
  scale : scale;
  chaos : chaos_spec option;  (* inject seeded faults *)
  arch : string option;
  predict : bool;
      (* also run the model-driven race; absent on the wire
         for pre-predictor clients, which decodes as [false] *)
  deadline_ms : int option;
      (* give up after this many milliseconds of server-side work
         and answer [Deadline_exceeded]; absent (pre-hardening
         clients) means no deadline *)
}

type lint_request = { app : string; config : string option }

type request =
  | Ping
  | Stats  (* server counters *)
  | Shutdown
  | Tune of tune_request  (* the paper's methodology: measure only the Pareto subset *)
  | Explore of explore_request  (* exhaustive vs pruned sweep *)
  | Lint of lint_request

(* One measurement, with the simulated seconds carried exactly. *)
type measured_row = { m_desc : string; m_time_s : float }

(* One per-candidate fault, in the journal encoding ([Fault.to_journal]).
   Kept as a string at this layer so the protocol stays pure. *)
type fault_row = { f_desc : string; f_fault : string }

(* Summary of one model-driven race ([Prune.outcome]), flattened to
   what a client can print: how much was simulated, what won, and where
   the true optimum sat in the prediction-only ranking.  [p_rank] is
   1-based; 0 means the optimum never entered the ranking (it was
   invalid or the space was empty). *)
type prune_row = {
  p_total : int;  (* valid configurations ranked *)
  p_probes : int;  (* measured to fit the predictor *)
  p_raced : int;  (* raced at the reduced shape *)
  p_simulated : int;  (* fully simulated: probes + survivors *)
  p_winner : measured_row;
  p_rank : int;
  p_recovered : bool;  (* winner matches the exhaustive optimum's time *)
  p_model : string;  (* fitted-model digest, the bit-identity pin *)
}

type tune_reply = {
  t_app : string;
  t_arch : string;  (* registry name the measurements were taken on *)
  t_space_size : int;
  t_chosen : measured_row;
  t_selected : string list;  (* Pareto-selected descs, space order *)
  t_runs : int;  (* simulator measurements this request paid for *)
  t_store_hits : int;  (* measurements answered by the result store *)
}

type explore_reply = {
  x_app : string;
  x_arch : string;  (* registry name the measurements were taken on *)
  x_space_size : int;
  x_invalid : int;
  x_best : measured_row;
  x_selected_best : measured_row;
  x_selected : string list;
  x_exhaustive : measured_row list;  (* every survivor, space order *)
  x_reduction : float;
  x_optimum_selected : bool;
  x_faults : fault_row list;
  x_runs : int;
  x_store_hits : int;
  x_prune : prune_row option;  (* present iff the request asked [predict] *)
}

type server_stats = {
  sv_requests : int;  (* requests handled, this process *)
  sv_errors : int;  (* requests answered with an error *)
  sv_runs : int;  (* simulator measurements performed *)
  sv_store_hits : int;  (* measurements answered by the store *)
  sv_store_misses : int;  (* store-backed measurements that had to run *)
  sv_store_entries : int;  (* entries resident in the store *)
}

type error_code =
  | Unknown_app
  | Bad_request  (* well-formed protocol, unsatisfiable content *)
  | Protocol_error  (* unparseable frame or message *)
  | Server_error  (* the handler itself failed *)
  | Deadline_exceeded  (* the request's deadline_ms expired mid-work *)

let error_codes =
  [ ("unknown-app", Unknown_app); ("bad-request", Bad_request); ("protocol-error", Protocol_error);
    ("server-error", Server_error); ("deadline-exceeded", Deadline_exceeded) ]

let error_code_name = name_in error_codes
let error_code_of_name n = List.assoc_opt n error_codes

type lint_reply = { l_report : string; l_errors : bool }
type error_reply = { e_code : error_code; e_msg : string }

(* The accept queue shed this connection; retry after the hinted
   backoff — safe, because content-addressed store keys make every
   request idempotent. *)
type overloaded_reply = { o_retry_after_ms : int }

type response =
  | Pong
  | Bye  (* shutdown acknowledged *)
  | Stats_r of server_stats
  | Tune_r of tune_reply
  | Explore_r of explore_reply
  | Lint_r of lint_reply
  | Error_r of error_reply
  | Overloaded_r of overloaded_reply

type decode_error =
  | Bad_json of string  (* not JSON at all *)
  | Bad_message of string  (* JSON of the wrong shape *)

let decode_error_to_string = function
  | Bad_json msg -> "bad JSON: " ^ msg
  | Bad_message msg -> "bad message: " ^ msg

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

open Util.Json

exception Shape of string

let shape fmt = Printf.ksprintf (fun msg -> raise (Shape msg)) fmt

(* How one value travels.  [dec at v] reads [v] or raises [Shape]; [at]
   names the value's slot in error text ("field \"app\"", "array item")
   and is built once, with the description. *)
type 'a codec = { enc : 'a -> t; dec : string -> t -> 'a }

let wrong at what = shape "%s is not %s" at what

let string =
  { enc = (fun s -> Str s); dec = (fun at -> function Str s -> s | _ -> wrong at "a string") }

let int =
  { enc = (fun i -> Int i); dec = (fun at -> function Int i -> i | _ -> wrong at "an integer") }

let bool =
  { enc = (fun b -> Bool b); dec = (fun at -> function Bool b -> b | _ -> wrong at "a boolean") }

let hexfloat =
  let dec at = function
    | Str s -> (
      match Hexfloat.of_string_opt s with Some f -> f | None -> wrong at "a hexadecimal float")
    | _ -> wrong at "a float-carrying string"
  in
  { enc = (fun f -> Str (Hexfloat.to_string f)); dec }

let item = "array item"

let list c =
  let dec at = function List l -> List.map (c.dec item) l | _ -> wrong at "an array" in
  { enc = (fun l -> List (List.map c.enc l)); dec }

(* A name from [table]; [what] names the set in error text. *)
let names ~what table =
  let dec at = function
    | Str s -> (
      match List.assoc_opt s table with Some v -> v | None -> shape "unknown %s %S" what s)
    | _ -> wrong at "a string"
  in
  { enc = (fun v -> Str (name_in table v)); dec }

type members = (string * t) list

(* One field of a record ['r] holding an ['a]: [get] projects it, [put]
   writes it onto the fields that follow (or leaves it out), [take]
   reads it from a decoded object. *)
type ('r, 'a) field = { get : 'r -> 'a; put : 'a -> members -> members; take : members -> 'a }

(* A record's fields in wire order, typed by the curried constructor
   that rebuilds the record from their values. *)
module Fields = struct
  type ('r, 'k) t = [] : ('r, 'r) t | ( :: ) : ('r, 'a) field * ('r, 'k) t -> ('r, 'a -> 'k) t
end

let missing name () = shape "missing field %S" name
let always name c v ms = (name, c.enc v) :: ms

let lookup name dec ~absent =
  let at = Printf.sprintf "field %S" name in
  fun ms -> match List.assoc_opt name ms with Some v -> dec at v | None -> absent ()

(* Written always; a frame without it is refused. *)
let req name c get = { get; put = always name c; take = lookup name c.dec ~absent:(missing name) }

(* Written always; absent (an older peer's frame) reads as [default]. *)
let dflt name c default get =
  { get; put = always name c; take = lookup name c.dec ~absent:(fun () -> default) }

(* [None] is left out, and absence reads as [None]. *)
let opt name c get =
  let put v ms = match v with Some x -> always name c x ms | None -> ms in
  { get; put; take = lookup name (fun at v -> Some (c.dec at v)) ~absent:(fun () -> None) }

(* Only [true] is written, and absence reads as [false]. *)
let flag name get =
  let put b ms = if b then always name bool b ms else ms in
  { get; put; take = lookup name bool.dec ~absent:(fun () -> false) }

type 'r obj = { write : 'r -> members; read : members -> 'r }

(* The record [make] builds from [fields].  The decoder reads the
   fields in order, so a frame's first fault in wire order is the one
   reported. *)
let obj (type r k) (make : k) (fields : (r, k) Fields.t) : r obj =
  let rec write : type k. (r, k) Fields.t -> r -> members =
   fun fields r ->
    match fields with Fields.[] -> [] | Fields.(f :: rest) -> f.put (f.get r) (write rest r)
  in
  (* Two fields per application: a two-field object (a row) is built
     without a partial application of [make]. *)
  let rec read : type k. k -> (r, k) Fields.t -> members -> r =
   fun make fields ms ->
    match fields with
    | Fields.[] -> make
    | Fields.[ f ] -> make (f.take ms)
    | Fields.(f :: g :: rest) ->
      let a = f.take ms in
      let b = g.take ms in
      read (make a b) rest ms
  in
  { write = (fun r -> write fields r); read = (fun ms -> read make fields ms) }

(* An object as a field's value or an array item.  A field must hold an
   object; an array item that is not one reads, like such a frame, as
   an object without fields, so its first required field is missing. *)
let value o =
  let dec at = function
    | Obj ms -> o.read ms
    | _ when String.equal at item -> o.read []
    | _ -> wrong at "an object"
  in
  { enc = (fun r -> Obj (o.write r)); dec }

(* One constructor of a message type: its ["type"] tag, its payload,
   and how to build and recognise it. *)
type 'v case =
  | Case : { tag : string; head : string * t; body : 'p obj; inj : 'p -> 'v; prj : 'v -> 'p option }
      -> 'v case

let case tag body inj prj = Case { tag; head = ("type", Str tag); body; inj; prj }

let const tag v =
  case tag (obj () Fields.[]) (fun () -> v) (fun v' -> if v' = v then Some () else None)

(* The encoder and the total decoder of a message type; [what] names
   it in error text. *)
let message what (cases : 'v case list) =
  let tags = List.map (fun (Case c as k) -> (c.tag, k)) cases in
  let take_case = lookup "type" (names ~what:(what ^ " type") tags).dec ~absent:(missing "type") in
  let rec encode v = function
    | [] -> invalid_arg ("Proto: no case describes this " ^ what)
    | Case c :: rest -> (
      match c.prj v with Some p -> Obj (c.head :: c.body.write p) | None -> encode v rest)
  in
  let decode text : (_, decode_error) result =
    match of_string text with
    | Error msg -> Error (Bad_json msg)
    | Ok v -> (
      let ms = match v with Obj ms -> ms | _ -> [] in
      match match take_case ms with Case c -> c.inj (c.body.read ms) with
      | m -> Ok m
      | exception Shape msg -> Error (Bad_message (what ^ ": " ^ msg)))
  in
  ((fun v -> to_string (encode v cases)), decode)

(* ------------------------------------------------------------------ *)
(* The messages                                                        *)
(* ------------------------------------------------------------------ *)

let scale = names ~what:"scale" scales

let chaos =
  obj (fun ch_seed ch_count -> { ch_seed; ch_count })
    Fields.[ req "seed" int (fun c -> c.ch_seed); req "count" int (fun c -> c.ch_count) ]

let row =
  obj (fun m_desc m_time_s -> { m_desc; m_time_s })
    Fields.[ req "desc" string (fun r -> r.m_desc); req "time" hexfloat (fun r -> r.m_time_s) ]

let fault =
  obj (fun f_desc f_fault -> { f_desc; f_fault })
    Fields.[ req "desc" string (fun r -> r.f_desc); req "fault" string (fun r -> r.f_fault) ]

let prune =
  obj (fun p_total p_probes p_raced p_simulated p_winner p_rank p_recovered p_model ->
      { p_total; p_probes; p_raced; p_simulated; p_winner; p_rank; p_recovered; p_model })
    Fields.[
      req "total" int (fun p -> p.p_total);
      req "probes" int (fun p -> p.p_probes);
      req "raced" int (fun p -> p.p_raced);
      req "simulated" int (fun p -> p.p_simulated);
      req "winner" (value row) (fun p -> p.p_winner);
      req "rank" int (fun p -> p.p_rank);
      req "recovered" bool (fun p -> p.p_recovered);
      req "model" string (fun p -> p.p_model) ]

(* The request records share field names, so their projections name
   the record type. *)
let tune_request =
  obj (fun app scale arch deadline_ms -> { app; scale; arch; deadline_ms })
    Fields.[
      req "app" string (fun (r : tune_request) -> r.app);
      req "scale" scale (fun (r : tune_request) -> r.scale);
      opt "arch" string (fun (r : tune_request) -> r.arch);
      opt "deadline_ms" int (fun (r : tune_request) -> r.deadline_ms) ]

let explore_request =
  obj (fun app scale arch predict deadline_ms chaos ->
      { app; scale; chaos; arch; predict; deadline_ms })
    Fields.[
      req "app" string (fun (r : explore_request) -> r.app);
      req "scale" scale (fun (r : explore_request) -> r.scale);
      opt "arch" string (fun (r : explore_request) -> r.arch);
      flag "predict" (fun r -> r.predict);
      opt "deadline_ms" int (fun (r : explore_request) -> r.deadline_ms);
      opt "chaos" (value chaos) (fun r -> r.chaos) ]

let lint_request =
  obj (fun app config -> { app; config })
    Fields.[
      req "app" string (fun (r : lint_request) -> r.app); opt "config" string (fun r -> r.config) ]

let encode_request, decode_request =
  message "request"
    [
      const "ping" Ping;
      const "stats" Stats;
      const "shutdown" Shutdown;
      case "tune" tune_request (fun r -> Tune r) (function Tune r -> Some r | _ -> None);
      case "explore" explore_request
        (fun r -> Explore r) (function Explore r -> Some r | _ -> None);
      case "lint" lint_request (fun r -> Lint r) (function Lint r -> Some r | _ -> None);
    ]

let server_stats =
  obj (fun sv_requests sv_errors sv_runs sv_store_hits sv_store_misses sv_store_entries ->
      { sv_requests; sv_errors; sv_runs; sv_store_hits; sv_store_misses; sv_store_entries })
    Fields.[
      req "requests" int (fun s -> s.sv_requests);
      req "errors" int (fun s -> s.sv_errors);
      req "runs" int (fun s -> s.sv_runs);
      req "store_hits" int (fun s -> s.sv_store_hits);
      req "store_misses" int (fun s -> s.sv_store_misses);
      req "store_entries" int (fun s -> s.sv_store_entries) ]

(* Replies from pre-registry servers carry no arch: by construction
   they are G80 measurements. *)
let reply_arch get = dflt "arch" string "g80" get

let tune_reply =
  obj (fun t_app t_arch t_space_size t_chosen t_selected t_runs t_store_hits ->
      { t_app; t_arch; t_space_size; t_chosen; t_selected; t_runs; t_store_hits })
    Fields.[
      req "app" string (fun t -> t.t_app);
      reply_arch (fun t -> t.t_arch);
      req "space_size" int (fun t -> t.t_space_size);
      req "chosen" (value row) (fun t -> t.t_chosen);
      req "selected" (list string) (fun t -> t.t_selected);
      req "runs" int (fun t -> t.t_runs);
      req "store_hits" int (fun t -> t.t_store_hits) ]

let explore_reply =
  obj (fun x_app x_arch x_space_size x_invalid x_best x_selected_best x_selected x_exhaustive
           x_reduction x_optimum_selected x_faults x_runs x_store_hits x_prune ->
      { x_app; x_arch; x_space_size; x_invalid; x_best; x_selected_best; x_selected;
        x_exhaustive; x_reduction; x_optimum_selected; x_faults; x_runs; x_store_hits; x_prune })
    Fields.[
      req "app" string (fun x -> x.x_app);
      reply_arch (fun x -> x.x_arch);
      req "space_size" int (fun x -> x.x_space_size);
      req "invalid" int (fun x -> x.x_invalid);
      req "best" (value row) (fun x -> x.x_best);
      req "selected_best" (value row) (fun x -> x.x_selected_best);
      req "selected" (list string) (fun x -> x.x_selected);
      req "exhaustive" (list (value row)) (fun x -> x.x_exhaustive);
      req "reduction" hexfloat (fun x -> x.x_reduction);
      req "optimum_selected" bool (fun x -> x.x_optimum_selected);
      req "faults" (list (value fault)) (fun x -> x.x_faults);
      req "runs" int (fun x -> x.x_runs);
      req "store_hits" int (fun x -> x.x_store_hits);
      opt "prune" (value prune) (fun x -> x.x_prune) ]

let lint_reply =
  obj (fun l_report l_errors -> { l_report; l_errors })
    Fields.[ req "report" string (fun l -> l.l_report); req "errors" bool (fun l -> l.l_errors) ]

let error_reply =
  obj (fun e_code e_msg -> { e_code; e_msg })
    Fields.[
      req "code" (names ~what:"error code" error_codes) (fun e -> e.e_code);
      req "msg" string (fun e -> e.e_msg) ]

let overloaded_reply =
  obj (fun o_retry_after_ms -> { o_retry_after_ms })
    Fields.[ req "retry_after_ms" int (fun o -> o.o_retry_after_ms) ]

let encode_response, decode_response =
  message "response"
    [
      const "pong" Pong;
      const "bye" Bye;
      case "stats" server_stats (fun s -> Stats_r s) (function Stats_r s -> Some s | _ -> None);
      case "tune" tune_reply (fun t -> Tune_r t) (function Tune_r t -> Some t | _ -> None);
      case "explore" explore_reply
        (fun x -> Explore_r x) (function Explore_r x -> Some x | _ -> None);
      case "lint" lint_reply (fun l -> Lint_r l) (function Lint_r l -> Some l | _ -> None);
      case "error" error_reply (fun e -> Error_r e) (function Error_r e -> Some e | _ -> None);
      case "overloaded" overloaded_reply (fun o -> Overloaded_r o) (function
        | Overloaded_r o -> Some o
        | _ -> None);
    ]
