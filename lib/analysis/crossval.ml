(* Cross-validation harness: run a lint report's per-site predictions
   against the simulator's per-site dynamic counters on the same
   launch, and diff them site by site.

   The simulator runs the *raw* lowering the report kept, so the
   (label, index) keys of its site table identify exactly the
   instructions the static analysis reasoned about, and each site's
   static counters are read off its verdict.  Functional mode executes
   every block of the grid, matching the enumeration engine's coverage,
   so agreement on affine-analyzable sites must be exact — any
   difference is a bug in one of the two models.  ⊤ sites are listed
   with their dynamic counts but carry no prediction. *)

type counters = { execs : int; tx : int; bytes : int; replays : int }

type site_diff = {
  d_site : Kir.Lower.site;
  d_desc : string;  (* rendered provenance *)
  d_static : (counters, string) result;  (* Error = ⊤ reason *)
  d_dynamic : counters;
}

type t = {
  cv_name : string;
  cv_sites : site_diff list;
  cv_total : int;
  cv_checked : int;  (* affine-analyzable sites compared *)
  cv_top : int;  (* ⊤ sites (reported, not compared) *)
  cv_mismatches : int;
}

let exact (d : site_diff) : bool =
  match d.d_static with Error _ -> true | Ok s -> s = d.d_dynamic

(* A verdict's prediction normalized per space: off-chip verdicts
   predict transactions and bytes, on-chip verdicts predict replays. *)
let static_counters : Lint.verdict -> (counters, string) result = function
  | Lint.Coalesced p | Lint.Uncoalesced p ->
    Ok { execs = p.Coalesce.p_execs; tx = p.Coalesce.p_tx; bytes = p.Coalesce.p_bytes; replays = 0 }
  | Lint.Bank_clean p | Lint.Bank_conflict p | Lint.Broadcast p | Lint.Serialized p ->
    Ok { execs = p.Bank.b_execs; tx = 0; bytes = 0; replays = p.Bank.b_replays }
  | Lint.Opaque why -> Error why

(* Simulate [r]'s raw lowering on [r]'s grid and block with [args], on
   a clone of [dev] (cross-validation must not clobber the caller's
   device memory), and pair each of [r]'s sites with its counters. *)
let run ~(dev : Gpu.Device.t) ~(arch : Gpu.Arch.t) ~(args : (string * Gpu.Sim.arg) list)
    (r : Lint.report) : t =
  let stats =
    Gpu.Sim.run ~mode:Gpu.Sim.Functional ~arch (Gpu.Device.clone dev)
      { Gpu.Sim.kernel = r.Lint.r_ptx; grid = r.Lint.r_grid; block = r.Lint.r_block; args }
  in
  let dyn : (string * int, counters) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (sc : Gpu.Sim.site_counter) ->
      Hashtbl.replace dyn
        (sc.Gpu.Sim.sc_label, sc.Gpu.Sim.sc_index)
        {
          execs = sc.Gpu.Sim.sc_execs;
          tx = sc.Gpu.Sim.sc_tx;
          bytes = sc.Gpu.Sim.sc_bytes;
          replays = sc.Gpu.Sim.sc_replays;
        })
    stats.Gpu.Sim.site_counters;
  let sites =
    List.map
      (fun (sr : Lint.site_report) ->
        let ls = sr.Lint.sr_site and info = sr.Lint.sr_info in
        let dynamic =
          match Hashtbl.find_opt dyn (ls.Kir.Lower.s_label, ls.Kir.Lower.s_index) with
          | Some c -> c
          | None ->
            failwith
              (Printf.sprintf "Analysis.Crossval: no dynamic counter for site %s+%d"
                 ls.Kir.Lower.s_label ls.Kir.Lower.s_index)
        in
        let loop_name = Access.loop_namer info in
        let desc =
          Printf.sprintf "%s %s[%s] @%s+%d"
            (Lint.kind_str info.Access.i_kind)
            info.Access.i_array
            (Affine.to_string ~loop_name info.Access.i_index)
            ls.Kir.Lower.s_label ls.Kir.Lower.s_index
        in
        {
          d_site = ls;
          d_desc = desc;
          d_static = static_counters sr.Lint.sr_verdict;
          d_dynamic = dynamic;
        })
      r.Lint.r_sites
  in
  let checked = List.length (List.filter (fun d -> Result.is_ok d.d_static) sites) in
  let top = List.length sites - checked in
  let mismatches = List.length (List.filter (fun d -> not (exact d)) sites) in
  {
    cv_name = r.Lint.r_name;
    cv_sites = sites;
    cv_total = List.length sites;
    cv_checked = checked;
    cv_top = top;
    cv_mismatches = mismatches;
  }

let render (r : t) : string =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s: %d sites — %d checked, %d ⊤, %d mismatch%s\n" r.cv_name r.cv_total r.cv_checked
    r.cv_top r.cv_mismatches
    (if r.cv_mismatches = 1 then "" else "es");
  List.iter
    (fun d ->
      let { execs; tx; bytes; replays } = d.d_dynamic in
      match d.d_static with
      | Error why ->
        pf "  [⊤   ] %-48s dyn: %d execs %d tx %d B %d replays (%s)\n" d.d_desc execs tx bytes
          replays why
      | Ok s ->
        let tag = if s = d.d_dynamic then "ok  " else "DIFF" in
        pf "  [%s] %-48s static: %d execs %d tx %d B %d replays | dynamic: %d execs %d tx %d B %d replays\n"
          tag d.d_desc s.execs s.tx s.bytes s.replays execs tx bytes replays)
    r.cv_sites;
  Buffer.contents buf
