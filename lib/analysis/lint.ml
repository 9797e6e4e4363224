(* The analyzer front end: pair every access site of a kernel (as
   recorded by [Kir.Lower.lower_with_sites]) with its affine analysis
   ([Access]), classify it with the coalescing/bank predictors, run
   the race detector, and render the result with kernel/loop/access
   provenance.  This is what `gpuopt lint`, the Pipeline analysis
   stage and the bench lint exhibit all consume. *)

module A = Affine

type input = {
  li_name : string;  (* display name (app or kernel) *)
  li_kernel : Kir.Ast.kernel;  (* post-KIR-pass source *)
  li_grid : int * int;
  li_block : int * int;
  li_args : (string * Gpu.Sim.arg) list;
  li_arch : Gpu.Arch.t;  (* machine whose geometry the predictors use *)
}

type verdict =
  | Coalesced of Coalesce.prediction
  | Uncoalesced of Coalesce.prediction
  | Bank_clean of Bank.prediction
  | Bank_conflict of Bank.prediction
  | Broadcast of Bank.prediction  (* constant cache, no serialization *)
  | Serialized of Bank.prediction  (* constant cache, distinct addresses *)
  | Opaque of string  (* ⊤: reported, never validated *)

type site_report = {
  sr_site : Kir.Lower.site;  (* (label, index) provenance *)
  sr_info : Access.info;  (* affine form, guards, loops *)
  sr_verdict : verdict;
}

type report = {
  r_name : string;
  r_ptx : Ptx.Prog.t;  (* the raw lowering whose sites [r_sites] indexes *)
  r_grid : int * int;
  r_block : int * int;
  r_sites : site_report list;
  r_races : Races.report;
  r_divergent : string list;
  r_warnings : string list;  (* rendered warning lines *)
}

(* Integer scalar arguments, for folding Param into the affine domain
   and for the race detector's evaluator. *)
let int_params (inp : input) : (string * int) list =
  List.filter_map (fun (n, a) -> match a with Gpu.Sim.I v -> Some (n, v) | _ -> None) inp.li_args

(* Byte base addresses: buffers from the launch arguments, shared and
   local arrays from the same static layout the lowering assigns. *)
let launch_env (inp : input) : Access.launch_env =
  let bases : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (a : Kir.Ast.array_param) ->
      match List.assoc_opt a.aname inp.li_args with
      | Some (Gpu.Sim.Buf b) -> Hashtbl.replace bases a.aname b.Gpu.Device.base
      | _ -> ())
    inp.li_kernel.array_params;
  ignore
    (List.fold_left
       (fun off (name, words) ->
         Hashtbl.replace bases name (off * 4);
         off + words)
       0 inp.li_kernel.shared_decls);
  List.iter (fun (name, _) -> Hashtbl.replace bases name 0) inp.li_kernel.local_decls;
  {
    Access.e_grid = inp.li_grid;
    e_block = inp.li_block;
    e_base =
      (fun n ->
        match Hashtbl.find_opt bases n with
        | Some b -> b
        | None -> raise (Access.Unpredictable (Printf.sprintf "no base address for array %s" n)));
    e_banks = inp.li_arch.Gpu.Arch.shared_banks;
  }

let kind_str = function `Load -> "load" | `Store -> "store"

let space_str = function
  | Kir.Ast.Global -> "global"
  | Kir.Ast.Shared -> "shared"
  | Kir.Ast.Const -> "const"
  | Kir.Ast.Local -> "local"

(* "load As[8·tid.y + k] (loop k, loop tb) @BODY5+0" *)
let site_desc (sr : site_report) : string =
  let info = sr.sr_info in
  let loop_name = Access.loop_namer info in
  let loops =
    match info.Access.i_loop_names with
    | [] -> ""
    | ns -> Printf.sprintf " (loop %s)" (String.concat ", loop " ns)
  in
  let guards =
    match info.Access.i_guards with
    | [] -> ""
    | gs ->
      Printf.sprintf " when %s"
        (String.concat " && " (List.map (Access.guard_to_string ~loop_name) gs))
  in
  Printf.sprintf "%s %s %s[%s]%s%s @%s+%d" (space_str info.Access.i_space)
    (kind_str info.Access.i_kind) info.Access.i_array
    (A.to_string ~loop_name info.Access.i_index)
    loops guards sr.sr_site.Kir.Lower.s_label sr.sr_site.Kir.Lower.s_index

let verdict_str (v : verdict) : string =
  match v with
  | Coalesced p ->
    Printf.sprintf "coalesced (%d execs, %d tx, %d B)" p.Coalesce.p_execs p.Coalesce.p_tx
      p.Coalesce.p_bytes
  | Uncoalesced p ->
    Printf.sprintf "UNCOALESCED (%d execs, %d tx, %d B; worst half-warp %d tx)"
      p.Coalesce.p_execs p.Coalesce.p_tx p.Coalesce.p_bytes p.Coalesce.p_max_half_tx
  | Bank_clean p -> Printf.sprintf "conflict-free (%d execs, 0 replays)" p.Bank.b_execs
  | Bank_conflict p ->
    Printf.sprintf "BANK CONFLICTS (%d execs, %d replays; worst degree %d)" p.Bank.b_execs
      p.Bank.b_replays p.Bank.b_max_degree
  | Broadcast p -> Printf.sprintf "broadcast (%d execs, 0 replays)" p.Bank.b_execs
  | Serialized p ->
    Printf.sprintf "SERIALIZED const access (%d execs, %d replays; worst degree %d)"
      p.Bank.b_execs p.Bank.b_replays p.Bank.b_max_degree
  | Opaque why -> Printf.sprintf "⊤ not analyzable: %s" why

let is_warning = function
  | Uncoalesced _ | Bank_conflict _ | Serialized _ -> true
  | Coalesced _ | Bank_clean _ | Broadcast _ | Opaque _ -> false

let analyze (inp : input) : report =
  let ptx, lsites = Kir.Lower.lower_with_sites inp.li_kernel in
  let params = int_params inp in
  let infos =
    Access.sites_of ~block:inp.li_block ~grid:inp.li_grid ~params inp.li_kernel
  in
  if List.length lsites <> List.length infos then
    failwith
      (Printf.sprintf
         "Analysis.Lint: walker out of sync with the lowering (%d sites lowered, %d walked)"
         (List.length lsites) (List.length infos));
  let env = launch_env inp in
  let sites =
    List.map2
      (fun (ls : Kir.Lower.site) (info : Access.info) ->
        if
          ls.Kir.Lower.s_array <> info.Access.i_array
          || ls.Kir.Lower.s_kind <> info.Access.i_kind
          || ls.Kir.Lower.s_space <> Kir.Ast.space_to_ptx info.Access.i_space
        then
          failwith
            (Printf.sprintf
               "Analysis.Lint: walker out of sync with the lowering at site %d (%s %s vs %s %s)"
               ls.Kir.Lower.sid
               (kind_str ls.Kir.Lower.s_kind)
               ls.Kir.Lower.s_array
               (kind_str info.Access.i_kind)
               info.Access.i_array);
        let verdict =
          match Access.analyzable info with
          | Error r -> Opaque r
          | Ok () -> (
            try
              match info.Access.i_space with
              | Kir.Ast.Global | Kir.Ast.Local ->
                let p = Coalesce.predict env info in
                if Coalesce.coalesced p then Coalesced p else Uncoalesced p
              | Kir.Ast.Shared ->
                let p = Bank.predict env info in
                if Bank.conflict_free p then Bank_clean p else Bank_conflict p
              | Kir.Ast.Const ->
                let p = Bank.predict env info in
                if Bank.conflict_free p then Broadcast p else Serialized p
            with Access.Unpredictable r -> Opaque r)
        in
        { sr_site = ls; sr_info = info; sr_verdict = verdict })
      lsites infos
  in
  let races =
    Races.check
      {
        Races.rc_kernel = inp.li_kernel;
        rc_grid = inp.li_grid;
        rc_block = inp.li_block;
        rc_params = params;
      }
  in
  let divergent = Races.tid_dependent_barriers inp.li_kernel in
  let warnings =
    List.filter_map
      (fun sr -> if is_warning sr.sr_verdict then Some (site_desc sr ^ ": " ^ verdict_str sr.sr_verdict) else None)
      sites
    @ List.map
        (fun (f : Races.finding) ->
          Printf.sprintf
            "shared-memory race on %s[%d] in barrier interval %d (block %d,%d): %s by thread %d vs %s by thread %d"
            f.Races.f_array f.Races.f_index f.Races.f_interval (fst f.Races.f_block)
            (snd f.Races.f_block) f.Races.f_access1 f.Races.f_tid1 f.Races.f_access2
            f.Races.f_tid2)
        races.Races.findings
    @ (match races.Races.incomplete with
      | Some why -> [ Printf.sprintf "race analysis incomplete: %s" why ]
      | None -> [])
    @ divergent
  in
  {
    r_name = inp.li_name;
    r_ptx = ptx;
    r_grid = inp.li_grid;
    r_block = inp.li_block;
    r_sites = sites;
    r_races = races;
    r_divergent = divergent;
    r_warnings = warnings;
  }

(* Correctness findings (as opposed to performance warnings). *)
let has_errors (r : report) : bool =
  r.r_races.Races.findings <> [] || r.r_divergent <> []

let top_sites (r : report) : site_report list =
  List.filter (fun sr -> match sr.sr_verdict with Opaque _ -> true | _ -> false) r.r_sites

let render (r : report) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let gx, gy = r.r_grid and bx, by = r.r_block in
  pf "%s: grid %dx%d, block %dx%d — %d access sites (%d not affine-analyzable)\n" r.r_name gx
    gy bx by (List.length r.r_sites)
    (List.length (top_sites r));
  List.iter
    (fun sr -> pf "  [%2d] %s\n       %s\n" sr.sr_site.Kir.Lower.sid (site_desc sr) (verdict_str sr.sr_verdict))
    r.r_sites;
  (match r.r_races.Races.findings with
  | [] -> (
    match r.r_races.Races.incomplete with
    | None -> pf "  races: none (all %d blocks checked)\n" (gx * gy)
    | Some why -> pf "  races: analysis incomplete — %s\n" why)
  | fs ->
    List.iter
      (fun (f : Races.finding) ->
        pf "  RACE on %s[%d], barrier interval %d, block (%d,%d): %s (thread %d) vs %s (thread %d)\n"
          f.Races.f_array f.Races.f_index f.Races.f_interval (fst f.Races.f_block)
          (snd f.Races.f_block) f.Races.f_access1 f.Races.f_tid1 f.Races.f_access2 f.Races.f_tid2)
      fs);
  List.iter (fun d -> pf "  DIVERGENT BARRIER: %s\n" d) r.r_divergent;
  Buffer.contents buf

(* One line for dashboards: "matmul: 7 sites, 0 ⊤, 2 warnings, race-free". *)
let summary (r : report) : string =
  Printf.sprintf "%s: %d sites, %d ⊤, %d warning%s, %s" r.r_name (List.length r.r_sites)
    (List.length (top_sites r))
    (List.length r.r_warnings)
    (if List.length r.r_warnings = 1 then "" else "s")
    (if r.r_races.Races.findings = [] && r.r_divergent = [] then "race-free"
     else "RACES/DIVERGENCE FOUND")
