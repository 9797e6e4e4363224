(* Static performance features and a ridge-regression runtime predictor.

   The paper prunes with two hand-derived metrics (Eqs. 1-2).  This
   module generalizes them: every quantity the static pipeline already
   knows about a candidate — the dynamic instruction profile, the
   instruction-class mix, occupancy, resource usage, the bandwidth
   screen, and the superoptimizer's statically-expected cycle wins —
   becomes one coordinate of a feature vector, and a cheap ridge
   regression fit on a handful of measured probe points maps that
   vector to a predicted log-runtime.  [Prune] ranks the whole space by
   these predictions and simulates only a slice of it.

   Everything here is deterministic: features are pure functions of the
   candidate, and the fit is a fixed-pivot Gaussian elimination over
   the normal equations — no iterative solver, no data-dependent
   convergence, so the model is bit-identical for every [--jobs] and on
   warm and cold stores alike.  The model serializes through
   [Hexfloat], the repo's exact float encoding, and its digest is the
   value the determinism tests and CI pin. *)

(* Feature names double as the report vocabulary: [of_candidate]
   produces the coordinates in exactly this order. *)
let feature_names : string list =
  [
    "log_instr";  (* log1p dynamic instructions per thread *)
    "log_regions";  (* log1p regions (inter-barrier spans) *)
    "instr_per_region";  (* the utilization metric's Instr/Regions term *)
    "mem_fraction";  (* memory instructions / instructions *)
    "sfu_fraction";  (* SFU instructions / instructions *)
    "gbytes_per_instr";  (* off-chip bytes demanded per instruction *)
    "barriers";  (* dynamic barriers per thread *)
    "warps_per_block";  (* W_TB *)
    "blocks_per_sm";  (* B_SM *)
    "independent_warps";  (* Eq. 2's bracket: (W_TB-1)/2 + (B_SM-1)*W_TB *)
    "log_threads";  (* log1p total threads *)
    "threads_per_block";
    "regs_per_thread";
    "log_smem_bytes";  (* log1p shared memory per block *)
    "log_efficiency";  (* log of Eq. 1 *)
    "log_utilization";  (* log1p of Eq. 2 *)
    "demand_bytes_cycle";  (* bandwidth screen's demanded B/cy/SM *)
    "bandwidth_bound";  (* 0/1: demand exceeds the arch's budget *)
  ]
  @ List.map (fun c -> "class_" ^ c) Ptx.Count.class_order
  @ [
      "peephole_matched";  (* rule-DB windows that fire on the kernel *)
      "peephole_saved_cy";  (* weighted cycle win of those rewrites *)
    ]

let dim = List.length feature_names

(* The feature vector of one candidate.  [rules] is the verified
   peephole database whose statically-expected wins become the last two
   coordinates ([Ptx.Peephole.run_stats] exposes the weighted
   saved-cycles sum, so no windows are re-enumerated here); with no
   database those coordinates are zero. *)
let of_candidate ?(rules = []) (c : Candidate.t) : float array =
  let p = c.profile in
  let m = Metrics.of_candidate c in
  let o = c.occupancy in
  let instr = Float.max p.instr 1.0 in
  let w_tb = float_of_int o.Gpu.Arch.warps_per_block in
  let b_sm = float_of_int o.Gpu.Arch.blocks_per_sm in
  (* The class mix is tallied with the rest of the profile, once per
     kernel at compile time. *)
  let classes = Ptx.Count.class_tally p in
  let dyn_total = List.fold_left ( +. ) 0.0 classes in
  let ph_matched, ph_saved =
    if rules = [] then (0.0, 0.0)
    else
      let _, st = Ptx.Peephole.run_stats rules c.kernel in
      (float_of_int st.Ptx.Peephole.matched, st.Ptx.Peephole.saved_cycles)
  in
  Array.of_list
    ([
       log1p p.instr;
       log1p p.regions;
       instr /. Float.max p.regions 1.0;
       Ptx.Count.mem_fraction p;
       p.sfu /. instr;
       p.global_bytes /. instr;
       p.barriers;
       w_tb;
       b_sm;
       ((w_tb -. 1.0) /. 2.0) +. ((b_sm -. 1.0) *. w_tb);
       log1p (float_of_int c.threads_total);
       float_of_int c.threads_per_block;
       float_of_int c.resource.Ptx.Resource.regs_per_thread;
       log1p (float_of_int c.resource.Ptx.Resource.smem_bytes_per_block);
       (if m.Metrics.efficiency > 0.0 then log m.Metrics.efficiency else 0.0);
       log1p m.Metrics.utilization;
       Metrics.demanded_bytes_per_cycle_per_sm c;
       (if Metrics.bandwidth_bound c then 1.0 else 0.0);
     ]
    @ List.map (fun d -> if dyn_total > 0.0 then d /. dyn_total else 0.0) classes
    @ [ ph_matched; ph_saved ])

(* ------------------------------------------------------------------ *)
(* Ridge regression                                                    *)
(* ------------------------------------------------------------------ *)

type model = {
  md_mu : float array;  (* per-feature training mean *)
  md_sigma : float array;  (* per-feature training stddev (1.0 when constant) *)
  md_w : float array;  (* weights over standardized features *)
  md_b : float;  (* intercept: mean log-runtime of the probes *)
  md_lambda : float;
  md_rows : int;  (* probe points the fit saw *)
}

(* Solve A x = b by Gaussian elimination with partial pivoting.  The
   pivot is the max-|a| row with the LOWEST index on ties, so the
   elimination order — and therefore every rounding — is a pure
   function of the inputs. *)
let solve (a : float array array) (b : float array) : float array =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
    done;
    if !piv <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tb
    end;
    let d = a.(col).(col) in
    (* the ridge term keeps the diagonal away from zero, but guard the
       degenerate no-data case anyway *)
    if Float.abs d > 0.0 then
      for r = col + 1 to n - 1 do
        let f = a.(r).(col) /. d in
        if f <> 0.0 then begin
          for k = col to n - 1 do
            a.(r).(k) <- a.(r).(k) -. (f *. a.(col).(k))
          done;
          b.(r) <- b.(r) -. (f *. b.(col))
        end
      done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for k = r + 1 to n - 1 do
      s := !s -. (a.(r).(k) *. x.(k))
    done;
    x.(r) <- (if Float.abs a.(r).(r) > 0.0 then !s /. a.(r).(r) else 0.0)
  done;
  x

(* Fit on (features, log-runtime) rows.  Standardizing first makes one
   lambda meaningful across features with wildly different scales
   (barrier counts vs log-efficiency); the ridge term then handles
   probe sets smaller than the feature dimension, which is the normal
   regime — the whole point is fitting on very few measurements. *)
let fit ?(lambda = 1e-2) (rows : (float array * float) list) : model =
  let n = List.length rows in
  let mu = Array.make dim 0.0 and sigma = Array.make dim 1.0 in
  if n = 0 then { md_mu = mu; md_sigma = sigma; md_w = Array.make dim 0.0; md_b = 0.0; md_lambda = lambda; md_rows = 0 }
  else begin
    let fn = float_of_int n in
    List.iter (fun (x, _) -> Array.iteri (fun j v -> mu.(j) <- mu.(j) +. v) x) rows;
    Array.iteri (fun j v -> mu.(j) <- v /. fn) mu;
    let var = Array.make dim 0.0 in
    List.iter
      (fun (x, _) ->
        Array.iteri (fun j v -> var.(j) <- var.(j) +. ((v -. mu.(j)) ** 2.0)) x)
      rows;
    Array.iteri
      (fun j v ->
        let s = Float.sqrt (v /. fn) in
        sigma.(j) <- (if s > 1e-12 then s else 1.0))
      var;
    let ybar = List.fold_left (fun a (_, y) -> a +. y) 0.0 rows /. fn in
    let z (x : float array) j = (x.(j) -. mu.(j)) /. sigma.(j) in
    (* normal equations over standardized features and centered y *)
    let a = Array.make_matrix dim dim 0.0 in
    let b = Array.make dim 0.0 in
    List.iter
      (fun (x, y) ->
        let yc = y -. ybar in
        for j = 0 to dim - 1 do
          let zj = z x j in
          b.(j) <- b.(j) +. (zj *. yc);
          for k = j to dim - 1 do
            a.(j).(k) <- a.(j).(k) +. (zj *. z x k)
          done
        done)
      rows;
    for j = 0 to dim - 1 do
      for k = 0 to j - 1 do
        a.(j).(k) <- a.(k).(j)
      done;
      a.(j).(j) <- a.(j).(j) +. (lambda *. fn)
    done;
    let w = solve a b in
    { md_mu = mu; md_sigma = sigma; md_w = w; md_b = ybar; md_lambda = lambda; md_rows = n }
  end

(* Predicted log-runtime of a feature vector. *)
let predict (m : model) (x : float array) : float =
  let s = ref m.md_b in
  for j = 0 to dim - 1 do
    s := !s +. (m.md_w.(j) *. ((x.(j) -. m.md_mu.(j)) /. m.md_sigma.(j)))
  done;
  !s

(* Predicted runtime in seconds. *)
let predict_s (m : model) (x : float array) : float = Float.exp (predict m x)

(* Weights in report order, largest |standardized weight| first. *)
let weight_table (m : model) : (string * float) list =
  List.sort
    (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a))
    (List.mapi (fun j name -> (name, m.md_w.(j))) feature_names)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "gpuopt-predict v1"

let row_line tag (a : float array) : string =
  tag ^ " " ^ String.concat " " (Array.to_list (Array.map Hexfloat.to_string a))

let to_lines (m : model) : string list =
  [
    magic;
    Printf.sprintf "dim %d rows %d lambda %s b %s" dim m.md_rows
      (Hexfloat.to_string m.md_lambda) (Hexfloat.to_string m.md_b);
    row_line "mu" m.md_mu;
    row_line "sigma" m.md_sigma;
    row_line "w" m.md_w;
  ]

let parse_row tag (line : string) : float array option =
  match String.split_on_char ' ' line with
  | t :: vals when t = tag && List.length vals = dim -> (
    let parsed = List.filter_map Hexfloat.of_string_opt vals in
    if List.length parsed = dim then Some (Array.of_list parsed) else None)
  | _ -> None

let of_lines (lines : string list) : model option =
  match lines with
  | m :: header :: mu :: sigma :: w :: _ when m = magic -> (
    match String.split_on_char ' ' header with
    | [ "dim"; d; "rows"; rows; "lambda"; l; "b"; b ]
      when int_of_string_opt d = Some dim -> (
      match
        ( int_of_string_opt rows,
          Hexfloat.of_string_opt l,
          Hexfloat.of_string_opt b,
          parse_row "mu" mu,
          parse_row "sigma" sigma,
          parse_row "w" w )
      with
      | Some md_rows, Some md_lambda, Some md_b, Some md_mu, Some md_sigma, Some md_w ->
        Some { md_mu; md_sigma; md_w; md_b; md_lambda; md_rows }
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The value the bit-identity checks compare: every coefficient spelled
   exactly ([Hexfloat] round-trips all finite floats), digested. *)
let digest (m : model) : string =
  Digest.to_hex (Digest.string (String.concat "\n" (to_lines m)))
