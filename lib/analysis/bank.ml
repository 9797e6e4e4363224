(* Static prediction of shared-memory bank-conflict degree (the target
   arch's bank count, half-warp granularity, same-address broadcast)
   and constant-cache serialization per access site.  As with
   [Coalesce], the predictor folds the simulator's own conflict rule —
   with the same bank geometry — over the enumerated executions, so
   the replay counts agree exactly with the dynamic counters on every
   registry machine. *)

type prediction = {
  b_execs : int;  (* warp executions with a non-empty mask *)
  b_replays : int;  (* Σ (degree - 1): extra issue slots *)
  b_min_degree : int;  (* best / worst per-execution degree *)
  b_max_degree : int;
}

(* Warp-level conflict degree, exactly as the simulator charges it:
   shared memory takes the max over the two half-warps; the constant
   cache serializes over distinct addresses of the whole warp. *)
let degree_of ~banks (space : Kir.Ast.space) ~addrs ~mask : int =
  match space with
  | Kir.Ast.Const ->
    let distinct = Hashtbl.create 8 in
    for l = 0 to 31 do
      if mask land (1 lsl l) <> 0 then Hashtbl.replace distinct addrs.(l) ()
    done;
    max 1 (Hashtbl.length distinct)
  | _ ->
    max
      (Gpu.Sim.bank_conflict_degree ~banks addrs mask 0)
      (Gpu.Sim.bank_conflict_degree ~banks addrs mask 1)

let predict (env : Access.launch_env) (site : Access.info) : prediction =
  let init = { b_execs = 0; b_replays = 0; b_min_degree = max_int; b_max_degree = 0 } in
  let p =
    Access.fold_execs env site ~init ~f:(fun acc ~addrs ~mask ->
        let deg = degree_of ~banks:env.Access.e_banks site.Access.i_space ~addrs ~mask in
        {
          b_execs = acc.b_execs + 1;
          b_replays = acc.b_replays + (deg - 1);
          b_min_degree = min acc.b_min_degree deg;
          b_max_degree = max acc.b_max_degree deg;
        })
  in
  if p.b_execs = 0 then { p with b_min_degree = 0 } else p

let conflict_free (p : prediction) : bool = p.b_execs = 0 || p.b_max_degree <= 1
