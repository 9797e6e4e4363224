(* Minimal JSON: the wire format of the tuning service.

   The repository deliberately depends only on the libraries baked into
   the toolchain image, so the serve layer carries its own JSON instead
   of pulling in yojson.  The subset is exactly what the protocol
   needs — null, booleans, integers, floats, strings, arrays, objects —
   with two properties the protocol tests rely on:

   - [of_string] is total: any byte string produces either a value or a
     descriptive [Error]; adversarial input (unterminated strings,
     deep nesting, garbage bytes) can never raise or overflow the
     stack, because nesting depth is bounded explicitly;
   - strings round-trip byte-exactly, including control characters and
     non-UTF-8 bytes (escaped as \u00XX on output, so the encoded form
     stays printable ASCII whenever the input is).

   Exact float transport is NOT done through JSON number literals
   (decimal printing is lossy); the protocol layer encodes times as
   hexadecimal-float strings instead.  [Float] exists so that numeric
   literals in hand-written or foreign JSON still parse. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec print_to (b : Buffer.t) (v : t) : unit =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    (* Only used for foreign values; protocol floats travel as strings.
       Infinities and NaN have no JSON literal: encode as null would
       lose them, so use the string spelling [float_of_string] accepts. *)
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else escape_to b (Printf.sprintf "%h" f)
  | Str s -> escape_to b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        print_to b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_to b k;
        Buffer.add_char b ':';
        print_to b v)
      fields;
    Buffer.add_char b '}'

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  print_to b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string * int  (* reason, byte position *)

let max_depth = 512

let of_string (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let bad reason = raise (Bad (reason, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> bad (Printf.sprintf "expected %C, found %C" c c')
    | None -> bad (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else bad (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then bad "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> bad (Printf.sprintf "bad \\u escape %S" h)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then bad "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= n then bad "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          (* Code points <= 0xFF decode to the raw byte (this is what the
             printer emits); larger BMP points become UTF-8 bytes. *)
          let c = hex4 () in
          if c <= 0xFF then Buffer.add_char b (Char.chr c)
          else if c <= 0x7FF then begin
            Buffer.add_char b (Char.chr (0xC0 lor (c lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (c lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
          end
        | e -> bad (Printf.sprintf "bad escape \\%C" e));
        loop ())
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> bad (Printf.sprintf "bad number %S" lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        (* Integer literal too large for the int type: keep the value. *)
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> bad (Printf.sprintf "bad number %S" lit))
  in
  let rec parse_value depth =
    if depth > max_depth then bad (Printf.sprintf "nesting deeper than %d" max_depth);
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elems () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems ()
          | Some ']' -> advance ()
          | Some c -> bad (Printf.sprintf "expected ',' or ']', found %C" c)
          | None -> bad "unterminated array"
        in
        elems ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | Some c -> bad (Printf.sprintf "expected ',' or '}', found %C" c)
          | None -> bad "unterminated object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some c -> bad (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then bad "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Bad (reason, p) -> Error (Printf.sprintf "JSON error at byte %d: %s" p reason)

(* ------------------------------------------------------------------ *)
(* Accessors (shape-checking helpers for decoders)                     *)
(* ------------------------------------------------------------------ *)

let member (k : string) (v : t) : t option =
  match v with Obj fields -> List.assoc_opt k fields | _ -> None
