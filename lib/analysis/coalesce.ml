(* Static prediction of global/local-memory transaction counts per
   access site, by folding the simulator's own per-half-warp traffic
   rule ([Gpu.Sim.half_traffic], G80 §2.1 semantics) over every
   execution the enumeration engine replays.  Because both sides run
   the same rule over the same addresses, agreement with the dynamic
   counters is exact, not approximate. *)

type prediction = {
  p_execs : int;  (* warp executions with a non-empty mask *)
  p_tx : int;  (* total memory transactions *)
  p_bytes : int;  (* total bytes moved *)
  p_min_half_tx : int;  (* best / worst half-warp transaction count *)
  p_max_half_tx : int;  (* (over halves with at least one active lane) *)
}

let predict (env : Access.launch_env) (site : Access.info) : prediction =
  let half ~addrs ~mask acc h =
    let p = Gpu.Sim.half_traffic site.Access.i_space addrs mask h in
    let tx = Gpu.Sim.traffic_tx p in
    if tx = 0 then acc
    else
      {
        acc with
        p_tx = acc.p_tx + tx;
        p_bytes = acc.p_bytes + Gpu.Sim.traffic_bytes p;
        p_min_half_tx = min acc.p_min_half_tx tx;
        p_max_half_tx = max acc.p_max_half_tx tx;
      }
  in
  let init = { p_execs = 0; p_tx = 0; p_bytes = 0; p_min_half_tx = max_int; p_max_half_tx = 0 } in
  let p =
    Access.fold_execs env site ~init ~f:(fun acc ~addrs ~mask ->
        let acc = { acc with p_execs = acc.p_execs + 1 } in
        half ~addrs ~mask (half ~addrs ~mask acc 0) 1)
  in
  if p.p_execs = 0 then { p with p_min_half_tx = 0 } else p

(* Fully coalesced: every executed half-warp collapsed to one
   transaction. *)
let coalesced (p : prediction) : bool = p.p_execs = 0 || p.p_max_half_tx <= 1
