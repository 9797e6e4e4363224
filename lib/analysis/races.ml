(* Barrier-interval shared-memory race detection.

   Each block body is partitioned at Sync into intervals, numbered by
   a per-thread barrier counter.  Provided no barrier is divergent
   (checked structurally by [tid_dependent_barriers]), all threads of
   a block agree on interval numbering, and two shared-memory accesses
   can be concurrent iff they fall in the same interval.  A race is a
   write and another access to the same element, in the same interval,
   by two distinct threads.

   Detection is by concrete per-thread execution of the KIR at the
   launch shape under analysis: every thread of every block is run
   through a small evaluator (integer/boolean values exact, floats and
   loaded data abstracted to "unknown"), and its shared accesses are
   logged per (array, element, interval).  This handles Div/Rem/Min/
   Max and thread-dependent loop bounds that fall outside the affine
   domain; only genuinely data-dependent indices or branches abort
   the analysis (reported as incomplete, never silently ignored). *)

open Kir.Ast

type input = {
  rc_kernel : kernel;
  rc_grid : int * int;
  rc_block : int * int;
  rc_params : (string * int) list;
}

type finding = {
  f_array : string;
  f_index : int;  (* element *)
  f_interval : int;  (* barrier interval *)
  f_block : int * int;
  f_tid1 : int;  (* linear tids of the two conflicting threads *)
  f_tid2 : int;
  f_access1 : string;  (* "store As[(tid.y * 8) + tid.x]" — the write *)
  f_access2 : string;
}

type report = {
  findings : finding list;  (* deduplicated by access-site pair *)
  incomplete : string option;  (* evaluator left the concrete domain *)
}

(* ------------------------------------------------------------------ *)
(* Expression rendering (provenance strings)                           *)
(* ------------------------------------------------------------------ *)

let spec_str = function
  | TidX -> "tid.x"
  | TidY -> "tid.y"
  | BidX -> "bid.x"
  | BidY -> "bid.y"
  | BdimX -> "bdim.x"
  | BdimY -> "bdim.y"
  | GdimX -> "gdim.x"
  | GdimY -> "gdim.y"

let bin_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Min -> "min"
  | Max -> "max"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | LAnd -> "&&"
  | LOr -> "||"

let un_str = function
  | Neg -> "-"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Rcp -> "rcp"
  | Sin -> "sin"
  | Cos -> "cos"
  | Not -> "!"
  | ToF -> "float"
  | ToI -> "int"

let rec pp_expr = function
  | Int n -> string_of_int n
  | Flt x -> Printf.sprintf "%g" x
  | Bool b -> string_of_bool b
  | Var x -> x
  | Param p -> p
  | Special s -> spec_str s
  | Bin ((Min | Max) as op, a, b) -> Printf.sprintf "%s(%s, %s)" (bin_str op) (pp_expr a) (pp_expr b)
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (pp_expr a) (bin_str op) (pp_expr b)
  | Un (op, a) -> Printf.sprintf "%s(%s)" (un_str op) (pp_expr a)
  | Ld (arr, idx) -> Printf.sprintf "%s[%s]" arr (pp_expr idx)
  | Select (c, a, b) -> Printf.sprintf "(%s ? %s : %s)" (pp_expr c) (pp_expr a) (pp_expr b)

(* ------------------------------------------------------------------ *)
(* Concrete per-thread evaluation                                      *)
(* ------------------------------------------------------------------ *)

type v = VI of int | VB of bool | VUnk

exception Thread_exit
exception Incomplete of string

let incomplete fmt = Printf.ksprintf (fun s -> raise (Incomplete s)) fmt

type tstate = {
  grid : int * int;
  block : int * int;
  params : (string * int) list;
  shared : (string, unit) Hashtbl.t;  (* names of shared arrays *)
  env : (string, v) Hashtbl.t;
  mutable sync : int;  (* barrier-interval counter *)
  bid : int * int;
  tid : int * int;
  (* log one shared access: write? array element interval site *)
  log : write:bool -> string -> int -> int -> string -> unit;
}

let rec eval (st : tstate) (e : expr) : v =
  match e with
  | Int n -> VI n
  | Flt _ -> VUnk
  | Bool b -> VB b
  | Var x -> ( match Hashtbl.find_opt st.env x with Some v -> v | None -> VUnk)
  | Param p -> (
    match List.assoc_opt p st.params with Some n -> VI n | None -> VUnk)
  | Special TidX -> VI (fst st.tid)
  | Special TidY -> VI (snd st.tid)
  | Special BidX -> VI (fst st.bid)
  | Special BidY -> VI (snd st.bid)
  | Special BdimX -> VI (fst st.block)
  | Special BdimY -> VI (snd st.block)
  | Special GdimX -> VI (fst st.grid)
  | Special GdimY -> VI (snd st.grid)
  | Select (c, a, b) -> (
    (* Both sides evaluate (lowering emits selp), so both log. *)
    let vc = eval st c in
    let va = eval st a in
    let vb = eval st b in
    match vc with VB true -> va | VB false -> vb | _ -> VUnk)
  | Un (op, a) -> (
    let va = eval st a in
    match (op, va) with
    | Neg, VI n -> VI (-n)
    | Abs, VI n -> VI (abs n)
    | Not, VB b -> VB (not b)
    | _ -> VUnk)
  | Bin (op, a, b) -> (
    let va = eval st a in
    let vb = eval st b in
    match (op, va, vb) with
    | (Eq | Ne | Lt | Le | Gt | Ge), VI x, VI y ->
      let c = compare x y in
      VB
        (match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false)
    | Eq, VB x, VB y -> VB (x = y)
    | Ne, VB x, VB y -> VB (x <> y)
    | LAnd, VB x, VB y -> VB (x && y)
    | LOr, VB x, VB y -> VB (x || y)
    | Add, VI x, VI y -> VI (x + y)
    | Sub, VI x, VI y -> VI (x - y)
    | Mul, VI x, VI y -> VI (x * y)
    | Div, VI x, VI y -> VI (if y = 0 then 0 else x / y)
    | Rem, VI x, VI y -> VI (if y = 0 then 0 else x mod y)
    | Min, VI x, VI y -> VI (min x y)
    | Max, VI x, VI y -> VI (max x y)
    | And, VI x, VI y -> VI (x land y)
    | Or, VI x, VI y -> VI (x lor y)
    | Xor, VI x, VI y -> VI (x lxor y)
    | Shl, VI x, VI y -> VI (x lsl y)
    | Shr, VI x, VI y -> VI (x asr y)
    | _ -> VUnk)
  | Ld (arr, idx) ->
    let vi = eval st idx in
    if Hashtbl.mem st.shared arr then begin
      match vi with
      | VI i -> st.log ~write:false arr i st.sync (Printf.sprintf "load %s[%s]" arr (pp_expr idx))
      | _ -> incomplete "data-dependent shared index in load %s[%s]" arr (pp_expr idx)
    end;
    VUnk

let max_loop_iters = 1_000_000

let rec exec_stmts (st : tstate) (ss : stmt list) : unit = List.iter (exec_stmt st) ss

and exec_stmt (st : tstate) (s : stmt) : unit =
  match s with
  | Let (x, _, e) | Mut (x, _, e) | Assign (x, e) ->
    let v = eval st e in
    Hashtbl.replace st.env x v
  | Store (arr, idx, value) ->
    ignore (eval st value);
    let vi = eval st idx in
    if Hashtbl.mem st.shared arr then begin
      match vi with
      | VI i -> st.log ~write:true arr i st.sync (Printf.sprintf "store %s[%s]" arr (pp_expr idx))
      | _ -> incomplete "data-dependent shared index in store %s[%s]" arr (pp_expr idx)
    end
  | Sync -> st.sync <- st.sync + 1
  | Return -> raise Thread_exit
  | If (c, t, e) -> (
    match eval st c with
    | VB true -> exec_stmts st t
    | VB false -> exec_stmts st e
    | _ -> incomplete "data-dependent branch on %s" (pp_expr c))
  | For l -> (
    let step = match l.step with Int s when s > 0 -> s | _ -> incomplete "non-literal loop step" in
    match (eval st l.lo, eval st l.hi) with
    | VI lo, VI hi ->
      let v = ref lo in
      let iters = ref 0 in
      while !v < hi do
        incr iters;
        if !iters > max_loop_iters then incomplete "loop %s exceeds iteration budget" l.var;
        Hashtbl.replace st.env l.var (VI !v);
        exec_stmts st l.body;
        v := !v + step
      done;
      Hashtbl.replace st.env l.var (VI !v)
    | _ -> incomplete "data-dependent bounds of loop %s" l.var)

(* ------------------------------------------------------------------ *)
(* Per-block race check                                                *)
(* ------------------------------------------------------------------ *)

(* Accesses logged for one (array, element, interval) cell.  Lists are
   capped, but an access by a tid not yet recorded is always kept, so
   a cross-thread overlap can never be evicted away. *)
type cell = { mutable writes : (int * string) list; mutable reads : (int * string) list }

let cell_add lst tid site =
  if List.length lst < 4 || (List.length lst < 16 && not (List.exists (fun (t, _) -> t = tid) lst))
  then (tid, site) :: lst
  else lst

(* Run all threads of block (bx, by); append deduplicated findings. *)
let check_block (inp : input) (bx : int) (by : int) (seen : (string, unit) Hashtbl.t)
    (findings : finding list ref) : unit =
  let bdx, bdy = inp.rc_block in
  let shared = Hashtbl.create 4 in
  List.iter (fun (n, _) -> Hashtbl.replace shared n ()) inp.rc_kernel.shared_decls;
  let cells : (string * int * int, cell) Hashtbl.t = Hashtbl.create 256 in
  for ty = 0 to bdy - 1 do
    for tx = 0 to bdx - 1 do
      let lin = (ty * bdx) + tx in
      let log ~write arr i interval site =
        let key = (arr, i, interval) in
        let c =
          match Hashtbl.find_opt cells key with
          | Some c -> c
          | None ->
            let c = { writes = []; reads = [] } in
            Hashtbl.replace cells key c;
            c
        in
        if write then c.writes <- cell_add c.writes lin site
        else c.reads <- cell_add c.reads lin site
      in
      let st =
        {
          grid = inp.rc_grid;
          block = inp.rc_block;
          params = inp.rc_params;
          shared;
          env = Hashtbl.create 32;
          sync = 0;
          bid = (bx, by);
          tid = (tx, ty);
          log;
        }
      in
      try exec_stmts st inp.rc_kernel.body with Thread_exit -> ()
    done
  done;
  Hashtbl.iter
    (fun (arr, i, interval) c ->
      let report (t1, s1) (t2, s2) =
        let key = Printf.sprintf "%s|%s|%s" arr s1 s2 in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          findings :=
            {
              f_array = arr;
              f_index = i;
              f_interval = interval;
              f_block = (bx, by);
              f_tid1 = t1;
              f_tid2 = t2;
              f_access1 = s1;
              f_access2 = s2;
            }
            :: !findings
        end
      in
      List.iter
        (fun (t1, s1) ->
          (* write/write *)
          (match List.find_opt (fun (t2, _) -> t2 <> t1) c.writes with
          | Some (t2, s2) -> report (t1, s1) (t2, s2)
          | None -> ());
          (* write/read *)
          match List.find_opt (fun (t2, _) -> t2 <> t1) c.reads with
          | Some (t2, s2) -> report (t1, s1) (t2, s2)
          | None -> ())
        c.writes)
    cells

(* Check every block of the launch.  The result is deduplicated by
   conflicting access-site pair. *)
let check (inp : input) : report =
  if inp.rc_kernel.shared_decls = [] then { findings = []; incomplete = None }
  else begin
    let gx, gy = inp.rc_grid in
    let coords = List.init (gx * gy) (fun i -> (i mod gx, i / gx)) in
    let seen = Hashtbl.create 16 in
    let findings = ref [] in
    try
      List.iter (fun (bx, by) -> check_block inp bx by seen findings) coords;
      { findings = List.rev !findings; incomplete = None }
    with Incomplete why -> { findings = List.rev !findings; incomplete = Some why }
  end

(* ------------------------------------------------------------------ *)
(* Divergent (tid-dependent) barriers                                  *)
(* ------------------------------------------------------------------ *)

(* Structural taint check at the KIR level, complementing Ptx.Verify's
   PTX-level check: a Sync under a tid-tainted condition, or inside a
   loop with tid-tainted bounds, is executed a thread-dependent number
   of times — undefined behaviour on the hardware.  Loaded values are
   conservatively tainted. *)
let tid_dependent_barriers (k : kernel) : string list =
  let tainted_vars : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec tainted (e : expr) : bool =
    match e with
    | Special (TidX | TidY) -> true
    | Special _ | Int _ | Flt _ | Bool _ | Param _ -> false
    | Var x -> Hashtbl.mem tainted_vars x
    | Ld _ -> true
    | Un (_, a) -> tainted a
    | Bin (_, a, b) -> tainted a || tainted b
    | Select (c, a, b) -> tainted c || tainted a || tainted b
  in
  let out = ref [] in
  let rec walk (ctx : string list) (ss : stmt list) : unit =
    List.iter
      (fun s ->
        match s with
        | Let (x, _, e) | Mut (x, _, e) | Assign (x, e) ->
          if tainted e then Hashtbl.replace tainted_vars x ()
        | Store _ | Return -> ()
        | Sync ->
          if ctx <> [] then
            out :=
              Printf.sprintf "barrier under tid-dependent control: %s"
                (String.concat " inside " ctx)
              :: !out
        | If (c, t, e) ->
          let ctx' = if tainted c then Printf.sprintf "if (%s)" (pp_expr c) :: ctx else ctx in
          walk ctx' t;
          walk ctx' e
        | For l ->
          let bounds_tainted = tainted l.lo || tainted l.hi || tainted l.step in
          if bounds_tainted then Hashtbl.replace tainted_vars l.var ();
          let ctx' =
            if bounds_tainted then
              Printf.sprintf "for %s in [%s, %s)" l.var (pp_expr l.lo) (pp_expr l.hi) :: ctx
            else ctx
          in
          walk ctx' l.body)
      ss
  in
  walk [] k.body;
  List.rev !out
