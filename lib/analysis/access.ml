(* The access walker: an abstract interpretation of a KIR kernel that
   derives, for every array load/store, an [Affine] index form, the
   affine guards under which the access executes, and the enclosing
   analyzable loops — in *exactly* the order [Kir.Lower] emits the
   corresponding Ld/St instructions, so position i in the result pairs
   with position i of [Kir.Lower.lower_with_sites]'s site table (and
   therefore with the simulator's per-site dynamic counters).

   Mirroring the lowering order is load-bearing: the walker reuses
   [Kir.Lower.split_const] on index expressions and replicates the
   mad-fusion pattern of [lower_expr] (whose second alternative lowers
   the addend *after* the product, i.e. not in syntactic order).

   The second half of the module is the enumeration engine
   [fold_execs]: it replays every warp-level execution of a site that
   the simulator would perform — blocks × warps × loop iterations —
   computing per-lane byte addresses from the affine form and the
   active mask from the guards.  The coalescing/bank predictors fold
   the simulator's own per-space rules, [Gpu.Sim.half_traffic] and
   [Gpu.Sim.serialization], over it, which is what makes static
   predictions bit-exact. *)

open Kir.Ast
module A = Affine

(* A branch condition reduced to an affine comparison; the lane is
   active iff (a `op` b) xor [g_not]. *)
type guard = { g_op : Kir.Ast.bin; g_not : bool; g_a : A.t; g_b : A.t }

(* One analyzable enclosing loop: uniform affine bounds (no tid
   terms — every lane of a warp agrees on the trip count) and a
   positive constant step. *)
type loop_ctx = { lid : int; lname : string; l_lo : A.t; l_hi : A.t; l_step : int }

type info = {
  i_sid : int;
  i_array : string;
  i_space : Kir.Ast.space;
  i_kind : [ `Load | `Store ];
  i_index : A.t;  (* element (word) index *)
  i_guards : guard list;  (* outermost first *)
  i_loops : loop_ctx list;  (* outermost first *)
  i_loop_names : string list;  (* all enclosing loops, for provenance *)
  i_dead : bool;  (* statically unreachable (after Return) *)
  i_unpred : string option;  (* context made the site non-analyzable *)
}

(* A site is analyzable when its context is clean and its index stayed
   in the affine domain (guards are affine by construction). *)
let analyzable (i : info) : (unit, string) result =
  match i.i_unpred with
  | Some r -> Error r
  | None -> (
    match A.top_reason i.i_index with Some r -> Error r | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Walker                                                              *)
(* ------------------------------------------------------------------ *)

type wst = {
  block : int * int;
  grid : int * int;
  params : (string * int) list;  (* integer scalar arguments *)
  spaces : (string, Kir.Ast.space) Hashtbl.t;
  env : (string, A.t) Hashtbl.t;  (* flat, like the lowering's *)
  mutable acc : info list;  (* reversed *)
  mutable next_sid : int;
  mutable next_lid : int;
}

type wctx = {
  guards : guard list;  (* innermost first *)
  loops : loop_ctx list;  (* innermost first *)
  loop_names : string list;  (* innermost first *)
  dead : bool;
  unpred : string option;  (* first reason, if any *)
}

let with_unpred ctx reason =
  match ctx.unpred with Some _ -> ctx | None -> { ctx with unpred = Some reason }

let is_cmp = function Eq | Ne | Lt | Le | Gt | Ge -> true | _ -> false

let negate_guard g = { g with g_not = not g.g_not }

let invalidate w vars reason = List.iter (fun x -> Hashtbl.replace w.env x (A.top reason)) vars

let rec has_return ss =
  List.exists
    (fun s ->
      match s with
      | Return -> true
      | For l -> has_return l.body
      | If (_, t, e) -> has_return t || has_return e
      | Let _ | Mut _ | Assign _ | Store _ | Sync -> false)
    ss

(* Abstractly evaluate [e], recording a site for every array load, in
   the order [Kir.Lower.lower_expr] emits them. *)
let rec expr_aff (w : wst) (ctx : wctx) (e : expr) : A.t =
  match e with
  | Int n -> A.const n
  | Flt _ -> A.top "float value"
  | Bool _ -> A.top "boolean value"
  | Var x -> (
    match Hashtbl.find_opt w.env x with
    | Some v -> v
    | None -> A.top (Printf.sprintf "unbound variable %s" x))
  | Param p -> (
    match List.assoc_opt p w.params with
    | Some v -> A.const v
    | None -> A.top (Printf.sprintf "non-integer parameter %s" p))
  | Special TidX -> A.of_term A.TidX
  | Special TidY -> A.of_term A.TidY
  | Special BidX -> A.of_term A.BidX
  | Special BidY -> A.of_term A.BidY
  | Special BdimX -> A.const (fst w.block)
  | Special BdimY -> A.const (snd w.block)
  | Special GdimX -> A.const (fst w.grid)
  | Special GdimY -> A.const (snd w.grid)
  | Select (c, a, b) ->
    ignore (expr_aff w ctx c);
    ignore (expr_aff w ctx a);
    ignore (expr_aff w ctx b);
    A.top "select"
  | Un (op, a) -> (
    let va = expr_aff w ctx a in
    match op with Neg -> A.neg va | _ -> A.top "unary operator")
  | Bin (op, a, b) when is_cmp op ->
    ignore (expr_aff w ctx a);
    ignore (expr_aff w ctx b);
    A.top "comparison"
  | Bin ((LAnd | LOr), a, b) ->
    ignore (expr_aff w ctx a);
    ignore (expr_aff w ctx b);
    A.top "boolean operator"
  | Bin (Add, Bin (Mul, ma, mb), c) | Bin (Add, c, Bin (Mul, ma, mb)) ->
    (* mad fusion: lower_expr walks ma, mb, c in this order even when
       [c] comes first syntactically (second alternative). *)
    let va = expr_aff w ctx ma in
    let vb = expr_aff w ctx mb in
    let vc = expr_aff w ctx c in
    A.add (A.mul va vb) vc
  | Bin (op, a, b) -> (
    let va = expr_aff w ctx a in
    let vb = expr_aff w ctx b in
    match op with
    | Add -> A.add va vb
    | Sub -> A.sub va vb
    | Mul -> A.mul va vb
    | Div -> A.div va vb
    | Rem -> A.rem va vb
    | Min -> A.imin va vb
    | Max -> A.imax va vb
    | And -> A.bitop ( land ) va vb
    | Or -> A.bitop ( lor ) va vb
    | Xor -> A.bitop ( lxor ) va vb
    | Shl -> A.bitop ( lsl ) va vb
    | Shr -> A.bitop ( asr ) va vb
    | Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr -> assert false)
  | Ld (arr, idx) ->
    record_access w ctx arr idx `Load;
    A.top (Printf.sprintf "value loaded from %s" arr)

(* Record one access site.  The index is normalized through the same
   [split_const] the lowering applies, both so any loads inside the
   index are walked in emission order and so the affine form equals
   dyn + const exactly as the addressing code computes it. *)
and record_access (w : wst) (ctx : wctx) (arr : string) (idx : expr) (kind : [ `Load | `Store ]) :
    unit =
  let dyn, c = Kir.Lower.split_const idx in
  let vdyn = match dyn with None -> A.const 0 | Some d -> expr_aff w ctx d in
  let v = A.add vdyn (A.const c) in
  let space =
    match Hashtbl.find_opt w.spaces arr with
    | Some s -> s
    | None -> failwith (Printf.sprintf "Analysis.Access: unknown array %S" arr)
  in
  let site =
    {
      i_sid = w.next_sid;
      i_array = arr;
      i_space = space;
      i_kind = kind;
      i_index = v;
      i_guards = List.rev ctx.guards;
      i_loops = List.rev ctx.loops;
      i_loop_names = List.rev ctx.loop_names;
      i_dead = ctx.dead;
      i_unpred = ctx.unpred;
    }
  in
  w.next_sid <- w.next_sid + 1;
  w.acc <- site :: w.acc

(* Walk a branch condition (recording any load sites exactly as
   [lower_pred] would) and reduce it to a guard if it is a single
   affine comparison. *)
let guard_of (w : wst) (ctx : wctx) (c : expr) : guard option =
  match c with
  | Bin (op, a, b) when is_cmp op ->
    let va = expr_aff w ctx a in
    let vb = expr_aff w ctx b in
    if A.is_top va || A.is_top vb then None
    else Some { g_op = op; g_not = false; g_a = va; g_b = vb }
  | _ ->
    ignore (expr_aff w ctx c);
    None

(* Walk statements; returns false if the list cannot fall through. *)
let rec walk_stmts (w : wst) (ctx : wctx) (ss : stmt list) : bool =
  match ss with
  | [] -> true
  | s :: rest -> (
    match s with
    | Let (x, _, e) | Mut (x, _, e) ->
      let v = expr_aff w ctx e in
      Hashtbl.replace w.env x v;
      walk_stmts w ctx rest
    | Assign (x, e) ->
      let v = expr_aff w ctx e in
      Hashtbl.replace w.env x v;
      walk_stmts w ctx rest
    | Store (arr, idx, value) ->
      (* value first, then address: the lowering's emission order *)
      ignore (expr_aff w ctx value);
      record_access w ctx arr idx `Store;
      walk_stmts w ctx rest
    | Sync -> walk_stmts w ctx rest
    | Return ->
      if rest <> [] then ignore (walk_stmts w { ctx with dead = true } rest);
      false
    | If (c, t, e) ->
      let g = guard_of w ctx c in
      let ctx_t, ctx_e =
        match g with
        | Some g0 ->
          ( { ctx with guards = g0 :: ctx.guards },
            { ctx with guards = negate_guard g0 :: ctx.guards } )
        | None ->
          let tainted = with_unpred ctx "non-affine branch condition" in
          (tainted, tainted)
      in
      let t_falls = walk_stmts w ctx_t t in
      let e_falls = walk_stmts w ctx_e e in
      (* A value assigned or bound under the branch is path-dependent
         after it. *)
      invalidate w (assigned_vars t (assigned_vars e [])) "assigned under a branch";
      invalidate w (bound_vars t (bound_vars e [])) "bound under a branch";
      let ctx_rest =
        if t_falls && e_falls then ctx
        else if (not t_falls) && not e_falls then { ctx with dead = true }
        else
          (* One side returned: survivors are the lanes that took the
             falling side. *)
          match g with
          | Some g0 ->
            let keep = if t_falls then g0 else negate_guard g0 in
            { ctx with guards = keep :: ctx.guards }
          | None -> with_unpred ctx "early exit under a non-affine condition"
      in
      walk_stmts w ctx_rest rest
    | For l ->
      let step = match l.step with Int s -> s | _ -> 0 in
      (* Bounds evaluate in the preheader, before the loop var binds. *)
      let v_lo = expr_aff w ctx l.lo in
      let v_hi = expr_aff w ctx l.hi in
      (* Anything assigned in the body is iteration-dependent from the
         body's point of view (and after the loop). *)
      invalidate w (assigned_vars l.body []) "assigned in a loop";
      let lid = w.next_lid in
      w.next_lid <- lid + 1;
      let ok = step > 0 && A.uniform v_lo && A.uniform v_hi in
      let ctx_body =
        if ok then begin
          Hashtbl.replace w.env l.var (A.of_term (A.Loop lid));
          {
            ctx with
            loops = { lid; lname = l.var; l_lo = v_lo; l_hi = v_hi; l_step = step } :: ctx.loops;
            loop_names = l.var :: ctx.loop_names;
          }
        end
        else begin
          let reason =
            if step <= 0 then "non-constant loop step"
            else if not (A.uniform v_lo && A.uniform v_hi) then
              if A.is_top v_lo || A.is_top v_hi then "non-affine loop bounds"
              else "thread-dependent loop bounds"
            else "unanalyzable loop"
          in
          Hashtbl.replace w.env l.var (A.top reason);
          { (with_unpred ctx reason) with loop_names = l.var :: ctx.loop_names }
        end
      in
      ignore (walk_stmts w ctx_body l.body);
      Hashtbl.replace w.env l.var (A.top "loop counter after loop");
      let ctx_after =
        if has_return l.body then with_unpred ctx "early exit inside a loop" else ctx
      in
      walk_stmts w ctx_after rest)

(* Derive the access-site table of [k] for a concrete launch shape.
   [params] must give the integer scalar arguments (others are treated
   as ⊤, which only matters if they flow into an index). *)
let sites_of ~(block : int * int) ~(grid : int * int) ~(params : (string * int) list)
    (k : kernel) : info list =
  let spaces = Hashtbl.create 8 in
  List.iter (fun (a : array_param) -> Hashtbl.replace spaces a.aname a.aspace) k.array_params;
  List.iter (fun (n, _) -> Hashtbl.replace spaces n Kir.Ast.Shared) k.shared_decls;
  List.iter (fun (n, _) -> Hashtbl.replace spaces n Kir.Ast.Local) k.local_decls;
  let w =
    {
      block;
      grid;
      params;
      spaces;
      env = Hashtbl.create 32;
      acc = [];
      next_sid = 0;
      next_lid = 0;
    }
  in
  let ctx = { guards = []; loops = []; loop_names = []; dead = false; unpred = None } in
  ignore (walk_stmts w ctx k.body);
  List.rev w.acc

(* ------------------------------------------------------------------ *)
(* Enumeration engine                                                  *)
(* ------------------------------------------------------------------ *)

exception Unpredictable of string

type launch_env = {
  e_grid : int * int;
  e_block : int * int;
  e_base : string -> int;  (* array name -> base *byte* address *)
  e_banks : int;  (* shared-memory banks of the target arch (16 on G80) *)
}

let eval_exn aff ~tid_x ~tid_y ~bid_x ~bid_y ~loop =
  match A.eval ~tid_x ~tid_y ~bid_x ~bid_y ~loop aff with
  | Some v -> v
  | None -> raise (Unpredictable "⊤ form in enumeration")

let cmp_holds op a b =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b
  | _ -> assert false

(* Fold [f] over every warp-level execution of [site] the simulator
   performs with a non-empty active mask: blocks × warps × enclosing
   loop iterations.  [addrs] holds per-lane byte addresses (valid only
   for lanes set in [mask]; the array is reused between calls).
   Raises [Unpredictable] if the site is not analyzable. *)
let fold_execs (env : launch_env) (site : info) ~(init : 'a)
    ~(f : 'a -> addrs:int array -> mask:int -> 'a) : 'a =
  (match analyzable site with Error r -> raise (Unpredictable r) | Ok () -> ());
  if site.i_dead then init
  else begin
    let gx, gy = env.e_grid in
    let bx, by = env.e_block in
    let tpb = bx * by in
    let nwarps = (tpb + 31) / 32 in
    let base = env.e_base site.i_array in
    let addrs = Array.make 32 0 in
    let loop_vals : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let lookup lid =
      match Hashtbl.find_opt loop_vals lid with
      | Some v -> v
      | None -> raise (Unpredictable "loop counter out of scope")
    in
    let acc = ref init in
    for bid_y = 0 to gy - 1 do
      for bid_x = 0 to gx - 1 do
        for wid = 0 to nwarps - 1 do
          let lanes = min 32 (tpb - (wid * 32)) in
          let rec iterate = function
            | [] ->
              let mask = ref 0 in
              for l = 0 to lanes - 1 do
                let lin = (wid * 32) + l in
                let tid_x = lin mod bx in
                let tid_y = lin / bx mod by in
                let active =
                  List.for_all
                    (fun g ->
                      let va = eval_exn g.g_a ~tid_x ~tid_y ~bid_x ~bid_y ~loop:lookup in
                      let vb = eval_exn g.g_b ~tid_x ~tid_y ~bid_x ~bid_y ~loop:lookup in
                      cmp_holds g.g_op va vb <> g.g_not)
                    site.i_guards
                in
                if active then begin
                  mask := !mask lor (1 lsl l);
                  addrs.(l) <-
                    base + (4 * eval_exn site.i_index ~tid_x ~tid_y ~bid_x ~bid_y ~loop:lookup)
                end
              done;
              if !mask <> 0 then acc := f !acc ~addrs ~mask:!mask
            | lc :: rest ->
              (* Bounds are uniform: any lane agrees; use lane (0,0). *)
              let lo = eval_exn lc.l_lo ~tid_x:0 ~tid_y:0 ~bid_x ~bid_y ~loop:lookup in
              let hi = eval_exn lc.l_hi ~tid_x:0 ~tid_y:0 ~bid_x ~bid_y ~loop:lookup in
              let v = ref lo in
              while !v < hi do
                Hashtbl.replace loop_vals lc.lid !v;
                iterate rest;
                v := !v + lc.l_step
              done;
              Hashtbl.remove loop_vals lc.lid
          in
          iterate site.i_loops
        done
      done
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Loop-id -> name map of a site, for rendering its affine forms. *)
let loop_namer (site : info) : int -> string =
  fun lid ->
   match List.find_opt (fun lc -> lc.lid = lid) site.i_loops with
   | Some lc -> lc.lname
   | None -> Printf.sprintf "L%d" lid

let guard_to_string ?loop_name (g : guard) : string =
  let op =
    match (g.g_op, g.g_not) with
    | Lt, false | Ge, true -> "<"
    | Le, false | Gt, true -> "<="
    | Gt, false | Le, true -> ">"
    | Ge, false | Lt, true -> ">="
    | Eq, false | Ne, true -> "=="
    | Ne, false | Eq, true -> "!="
    | _ -> assert false
  in
  Printf.sprintf "%s %s %s" (A.to_string ?loop_name g.g_a) op (A.to_string ?loop_name g.g_b)
