(* Apply a verified rule database to a kernel.

   Matching is purely structural: a window of [List.length r.lhs]
   consecutive instructions matches when its canonical form equals the
   rule's lhs bitwise.  The replacement instantiates the rhs through
   the inverse renaming (canonical slot -> concrete register), which is
   injective by construction of [Window.canonicalize].

   Soundness at a site needs one extra fact the rule itself cannot
   carry: any register the lhs defines but the rhs does not
   ([Patterns.clobbers]) must be dead after the window.  We compute
   liveness once on the input kernel and consult it at each candidate
   site.  Replacements never introduce new uses (rhs inputs are a
   subset of lhs inputs, rule wellformedness), so deadness judged on
   the original block remains valid as rewriting proceeds
   left-to-right: liveness after position j depends only on the
   not-yet-rewritten suffix and the block's live-out. *)

open Instr

let instantiate (renaming : Reg.t Reg.Map.t) (seq : t list) : t list =
  List.map
    (map_regs (fun r -> match Reg.Map.find_opt r renaming with Some r' -> r' | None -> r))
    seq

(* Try rule [r] at the front of [window] (already exactly rule-length).
   Returns the concrete replacement on a match. *)
let apply_rule (r : Patterns.rule) (window : t list) : t list option =
  if not (Window.is_pure window) then None
  else
    let canon = Window.canonicalize window in
    if not (Window.equal_seq canon r.Patterns.lhs) then None
    else
      let renaming = Window.renaming window in
      Some (instantiate renaming r.Patterns.rhs)

(* Concrete clobbered registers at a site: lhs-defined, rhs-dropped,
   mapped through the site's renaming. *)
let site_clobbers (r : Patterns.rule) (window : t list) : Reg.t list =
  let renaming = Window.renaming window in
  List.map
    (fun d -> match Reg.Map.find_opt d renaming with Some c -> c | None -> d)
    (Patterns.clobbers r)

type stats = {
  matched : int;
  blocked : int;
  saved_cycles : float;
      (* sum over fired sites of block weight x the rule's [saved]
         issue-cycle win: the statically expected per-thread cycle
         saving of the whole rewrite, usable as a cost signal without
         re-enumerating windows *)
}

let empty_stats = { matched = 0; blocked = 0; saved_cycles = 0.0 }

let run_stats (rules : Patterns.rule list) (k : Prog.t) : Prog.t * stats =
  let rules = List.filter Patterns.wellformed rules in
  (* Matching is a hash lookup, not a scan over the database: a window
     matches rule [r] iff its canonical key equals [Window.key r.lhs],
     so indexing the rules by that key makes each site O(window
     lengths), which is what keeps a thousand-rule database usable
     inside the tuner's inner loop.  First rule per key wins, matching
     the old in-order scan; longer windows are still preferred over a
     one-instruction rewrite of their prefix by trying lengths
     longest-first. *)
  let index : (string, Patterns.rule) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (r : Patterns.rule) ->
      let key = Window.key r.Patterns.lhs in
      if not (Hashtbl.mem index key) then Hashtbl.add index key r)
    rules;
  let lengths =
    List.sort_uniq
      (fun a b -> compare b a)
      (List.map (fun (r : Patterns.rule) -> List.length r.Patterns.lhs) rules)
  in
  if rules = [] then (k, empty_stats)
  else begin
    let cfg = Cfg.of_kernel k in
    let live = Liveness.compute cfg in
    let stats = ref empty_stats in
    let blocks =
      List.mapi
        (fun bi (b : Prog.block) ->
          let after = Liveness.live_after_each live cfg bi in
          let body = Array.of_list b.Prog.body in
          let n = Array.length body in
          let out = ref [] in
          let j = ref 0 in
          while !j < n do
            let here = !j in
            let fired =
              List.find_map
                (fun len ->
                  if here + len > n then None
                  else
                    let window = Array.to_list (Array.sub body here len) in
                    if not (Window.is_pure window) then None
                    else
                      match Hashtbl.find_opt index (Window.key (Window.canonicalize window)) with
                      | None -> None
                      | Some r -> (
                        match apply_rule r window with
                        | None -> None
                        | Some repl ->
                          let live_after = after.(here + len - 1) in
                          let clobbered_live =
                            List.exists
                              (fun c -> Regbits.mem live_after c)
                              (site_clobbers r window)
                          in
                          if clobbered_live then begin
                            stats := { !stats with blocked = !stats.blocked + 1 };
                            None
                          end
                          else Some (repl, len, r)))
                lengths
            in
            match fired with
            | Some (repl, len, r) ->
              stats :=
                {
                  !stats with
                  matched = !stats.matched + 1;
                  saved_cycles =
                    !stats.saved_cycles +. (b.Prog.weight *. float_of_int r.Patterns.saved);
                };
              List.iter (fun i -> out := i :: !out) repl;
              j := here + len
            | None ->
              out := body.(here) :: !out;
              incr j
          done;
          { b with Prog.body = List.rev !out })
        k.Prog.blocks
    in
    ({ k with Prog.blocks }, !stats)
  end

let run (rules : Patterns.rule list) (k : Prog.t) : Prog.t = fst (run_stats rules k)
