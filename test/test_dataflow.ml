(* The PTX layer's bitset liveness against a textbook oracle.

   [Ptx.Liveness] solves on dense register bitsets with a worklist; the
   oracle below is the plain [Reg.Set] formulation it replaced (round
   robin over the reachable blocks in postorder until nothing changes,
   per-position sets from a backward walk).  On random race-free KIR
   kernels, lowered and then optimized, both must agree on live-in,
   live-out and the registers live after every instruction. *)

open Ptx

module Oracle = struct
  let block_use_def (b : Prog.block) : Reg.Set.t * Reg.Set.t =
    let use = ref Reg.Set.empty and def = ref Reg.Set.empty in
    let see_uses rs =
      List.iter (fun r -> if not (Reg.Set.mem r !def) then use := Reg.Set.add r !use) rs
    in
    List.iter
      (fun i ->
        see_uses (Instr.uses i);
        match Instr.def i with Some d -> def := Reg.Set.add d !def | None -> ())
      b.body;
    see_uses (Prog.term_uses b.term);
    (!use, !def)

  (* live_in, live_out per block. *)
  let compute (cfg : Cfg.t) : Reg.Set.t array * Reg.Set.t array =
    let n = Cfg.num_blocks cfg in
    let ud = Array.init n (fun i -> block_use_def (Cfg.block cfg i)) in
    let live_in = Array.make n Reg.Set.empty and live_out = Array.make n Reg.Set.empty in
    let order = List.rev (Cfg.reverse_postorder cfg) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun i ->
          let out =
            List.fold_left
              (fun acc s -> Reg.Set.union acc live_in.(s))
              Reg.Set.empty (Cfg.succs cfg).(i)
          in
          let use, def = ud.(i) in
          let inn = Reg.Set.union use (Reg.Set.diff out def) in
          if not (Reg.Set.equal out live_out.(i)) then begin
            live_out.(i) <- out;
            changed := true
          end;
          if not (Reg.Set.equal inn live_in.(i)) then begin
            live_in.(i) <- inn;
            changed := true
          end)
        order
    done;
    (live_in, live_out)

  let live_after_each (live_out : Reg.Set.t array) (cfg : Cfg.t) (i : int) : Reg.Set.t array =
    let b = Cfg.block cfg i in
    let body = Array.of_list b.body in
    let after = Array.make (Array.length body) Reg.Set.empty in
    let live = ref (Reg.Set.union live_out.(i) (Reg.Set.of_list (Prog.term_uses b.term))) in
    for j = Array.length body - 1 downto 0 do
      after.(j) <- !live;
      (match Instr.def body.(j) with Some d -> live := Reg.Set.remove d !live | None -> ());
      List.iter (fun r -> live := Reg.Set.add r !live) (Instr.uses body.(j))
    done;
    after
end

(* First disagreement between the solver and the oracle on [k], if any. *)
let disagreement (k : Prog.t) : string option =
  let cfg = Cfg.of_kernel k in
  let live = Liveness.compute cfg in
  let o_in, o_out = Oracle.compute cfg in
  let same bits set = Regbits.elements bits = Reg.Set.elements set in
  let exception Differs of string in
  try
    for bi = 0 to Cfg.num_blocks cfg - 1 do
      let label = (Cfg.block cfg bi).label in
      if not (same live.live_in.(bi) o_in.(bi)) then raise (Differs (label ^ " live-in"));
      if not (same live.live_out.(bi) o_out.(bi)) then raise (Differs (label ^ " live-out"));
      let after = Liveness.live_after_each live cfg bi in
      let o_after = Oracle.live_after_each o_out cfg bi in
      Array.iteri
        (fun j s ->
          if not (same after.(j) s) then
            raise (Differs (Printf.sprintf "%s live after instruction %d" label j)))
        o_after
    done;
    None
  with Differs where -> Some where

let tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"bitset liveness equals the Reg.Set oracle, lowered and optimized (qcheck)"
         ~count:100
         QCheck.(int_range 0 100_000)
         (fun seed ->
           let k = Test_sim_golden.gen_kernel (Util.Rng.create seed) in
           let lowered = Kir.Lower.lower k in
           List.for_all
             (fun (stage, p) ->
               match disagreement p with
               | None -> true
               | Some where -> QCheck.Test.fail_reportf "seed %d, %s: %s differs" seed stage where)
             [ ("lowered", lowered); ("optimized", Opt.run lowered) ]));
  ]

let suite = [ ("ptx.dataflow", tests) ]
