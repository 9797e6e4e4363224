(* Static prediction of shared-memory bank-conflict degree (the target
   arch's bank count, half-warp granularity, same-address broadcast)
   and constant-cache serialization per access site.  As with
   [Coalesce], the predictor folds the simulator's own serialization
   rule ([Gpu.Sim.serialization]) — with the same bank geometry — over
   the enumerated executions, so the replay counts agree exactly with
   the dynamic counters on every registry machine. *)

type prediction = {
  b_execs : int;  (* warp executions with a non-empty mask *)
  b_replays : int;  (* Σ (degree - 1): extra issue slots *)
  b_min_degree : int;  (* best / worst per-execution degree *)
  b_max_degree : int;
}

let predict (env : Access.launch_env) (site : Access.info) : prediction =
  let per_bank = Array.make env.Access.e_banks 0 in
  let init = { b_execs = 0; b_replays = 0; b_min_degree = max_int; b_max_degree = 0 } in
  let p =
    Access.fold_execs env site ~init ~f:(fun acc ~addrs ~mask ->
        let deg = Gpu.Sim.serialization site.Access.i_space per_bank addrs mask in
        {
          b_execs = acc.b_execs + 1;
          b_replays = acc.b_replays + (deg - 1);
          b_min_degree = min acc.b_min_degree deg;
          b_max_degree = max acc.b_max_degree deg;
        })
  in
  if p.b_execs = 0 then { p with b_min_degree = 0 } else p

let conflict_free (p : prediction) : bool = p.b_execs = 0 || p.b_max_degree <= 1
