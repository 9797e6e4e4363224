(* Rendering of the paper's tables and figures as text.

   Tables are aligned ASCII; figures are terminal scatter/line plots.
   These feed both the benchmark harness (which regenerates every table
   and figure of the paper) and the CLI. *)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* Render rows with left-aligned columns padded to the widest cell. *)
let table ?(sep = "  ") (header : string list) (rows : string list list) : string =
  let all = header :: rows in
  let ncols = List.fold_left (fun a r -> max a (List.length r)) 0 all in
  let width = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> width.(i) <- max width.(i) (String.length cell)) row)
    all;
  let render_row row =
    let cells =
      List.mapi
        (fun i cell -> cell ^ String.make (width.(i) - String.length cell) ' ')
        row
    in
    String.concat sep cells
  in
  let rule =
    String.concat sep (Array.to_list (Array.map (fun w -> String.make w '-') width))
  in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Scatter plot (Figure 6 style)                                       *)
(* ------------------------------------------------------------------ *)

type mark = Dot | Front | Best

(* Plot (efficiency, utilization) points in [0,1]^2 on a 64 x 20 grid;
   '.' = configuration, 'o' = Pareto-optimal, '*' = true optimum. *)
let scatter (points : (float * float * mark) list) : string =
  let width = 64 and height = 20 in
  let grid = Array.make_matrix height width ' ' in
  let plot (x, y, m) =
    let cx = Util.Stats.clamp 0 (width - 1) (int_of_float (x *. float_of_int (width - 1))) in
    let cy = Util.Stats.clamp 0 (height - 1) (int_of_float (y *. float_of_int (height - 1))) in
    let row = height - 1 - cy in
    let ch = match m with Dot -> '.' | Front -> 'o' | Best -> '*' in
    (* Never overwrite a more important mark. *)
    let rank c = match c with '*' -> 3 | 'o' -> 2 | '.' -> 1 | _ -> 0 in
    if rank ch > rank grid.(row).(cx) then grid.(row).(cx) <- ch
  in
  List.iter plot points;
  let buf = Buffer.create (width * height) in
  Buffer.add_string buf "utilization ^\n";
  Array.iter
    (fun row ->
      Buffer.add_string buf "  |";
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf ("  +" ^ String.make width '-' ^ "> efficiency\n");
  Buffer.add_string buf "  legend: . config   o Pareto-optimal subset   * optimum\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Line/series plot (Figure 4/5 style)                                 *)
(* ------------------------------------------------------------------ *)

(* Plot one or more named series over a shared x axis on a 64 x 18
   grid; y is auto-scaled.  Each series gets a distinct character. *)
let series_plot ~(x_name : string) ~(y_name : string) (series : (string * (float * float) list) list)
    : string =
  let width = 64 and height = 18 in
  let all_pts = List.concat_map snd series in
  if all_pts = [] then "(no data)\n"
  else begin
    let xs = List.map fst all_pts and ys = List.map snd all_pts in
    let xmin = List.fold_left Float.min Float.infinity xs in
    let xmax = List.fold_left Float.max Float.neg_infinity xs in
    let ymin = List.fold_left Float.min Float.infinity ys in
    let ymax = List.fold_left Float.max Float.neg_infinity ys in
    let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
    let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
    let grid = Array.make_matrix height width ' ' in
    let chars = [| '+'; 'x'; 'o'; '#'; '@'; '%'; '&'; '=' |] in
    List.iteri
      (fun si (_, pts) ->
        let ch = chars.(si mod Array.length chars) in
        List.iter
          (fun (x, y) ->
            let cx =
              Util.Stats.clamp 0 (width - 1)
                (int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)))
            in
            let cy =
              Util.Stats.clamp 0 (height - 1)
                (int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1)))
            in
            grid.(height - 1 - cy).(cx) <- ch)
          pts)
      series;
    let buf = Buffer.create (width * height) in
    Buffer.add_string buf (Printf.sprintf "%s (%.3g .. %.3g) ^\n" y_name ymin ymax);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf
      (Printf.sprintf "  +%s> %s (%.3g .. %.3g)\n" (String.make width '-') x_name xmin xmax);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "  %c = %s\n" chars.(si mod Array.length chars) name))
      series;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Figure 6 for one application                                        *)
(* ------------------------------------------------------------------ *)

let figure6 (r : Search.result) : string =
  let ms = List.map snd r.all in
  let norm = Metrics.normalize ms in
  let selected_descs =
    List.map (fun ((c : Candidate.t), _) -> c.desc) r.selected
  in
  let best_desc = r.best.cand.desc in
  let points =
    List.map2
      (fun ((c : Candidate.t), _) (m : Metrics.t) ->
        let mark =
          if String.equal c.desc best_desc then Best
          else if List.mem c.desc selected_descs then Front
          else Dot
        in
        (m.efficiency, m.utilization, mark))
      r.all norm
  in
  scatter points

(* One row of Table 4. *)
let table4_row (r : Search.result) : string list =
  [
    r.app_name;
    string_of_int r.space_size;
    Printf.sprintf "%.3f s" r.full_eval_time;
    string_of_int (List.length r.selected);
    Printf.sprintf "%.0f%%" (r.reduction *. 100.0);
    Printf.sprintf "%.3f s" r.selected_eval_time;
    (if r.optimum_selected then "yes" else "NO");
  ]

let table4_header =
  [
    "Kernel";
    "Configurations";
    "Evaluation time";
    "Selected";
    "Space reduction";
    "Selected eval time";
    "Optimum on curve";
  ]

(* ------------------------------------------------------------------ *)
(* Pruning-ratio table (model-driven race vs Pareto vs exhaustive)     *)
(* ------------------------------------------------------------------ *)

let prune_header =
  [
    "Kernel";
    "Space";
    "Probes";
    "Raced";
    "Full sims";
    "Simulated";
    "Pareto";
    "Opt rank";
    "Recovered";
  ]

(* One row per app: how much of the space the model-driven race fully
   simulated, side by side with the paper methodology's own Pareto
   reduction on the same space, plus where the true optimum sat in the
   prediction-only ranking.  Requires [r.prune = Some _]. *)
let prune_row (r : Search.result) : string list =
  match r.prune with
  | None -> invalid_arg (r.app_name ^ ": no prune outcome to report")
  | Some o ->
    [
      r.app_name;
      string_of_int o.Prune.pr_total;
      string_of_int (List.length o.Prune.pr_probes);
      string_of_int o.Prune.pr_raced;
      string_of_int o.Prune.pr_simulated;
      Printf.sprintf "%.1f%%"
        (100.0 *. float_of_int o.Prune.pr_simulated /. float_of_int o.Prune.pr_total);
      Printf.sprintf "%.1f%%" (100.0 *. (1.0 -. r.reduction));
      (match Prune.rank_of o r.best.cand.desc with
      | Some k -> Printf.sprintf "%d/%d" k o.Prune.pr_total
      | None -> "-");
      (if Prune.recovered o ~best:r.best then "yes" else "NO");
    ]

let prune_table (r : Search.result) : string = table prune_header [ prune_row r ]

(* ------------------------------------------------------------------ *)
(* Fault table                                                         *)
(* ------------------------------------------------------------------ *)

(* One row per measured-as-failed candidate: the config, the fault's
   short tag, and the first line of its description (a crash backtrace
   belongs in a log, not a table cell). *)
let fault_table (faults : (Candidate.t * Fault.t) list) : string =
  let first_line s = match String.index_opt s '\n' with
    | None -> s
    | Some i -> String.sub s 0 i
  in
  table
    [ "Config"; "Fault"; "Detail" ]
    (List.map
       (fun ((c : Candidate.t), f) -> [ c.desc; Fault.tag f; first_line (Fault.to_string f) ])
       faults)

(* ------------------------------------------------------------------ *)
(* Per-arch winner table                                               *)
(* ------------------------------------------------------------------ *)

(* One row per machine model of a cross-arch sweep: the pruned
   search's choice and the true optimum on that machine, with the
   space statistics that explain why they differ across machines
   (validity and occupancy shift with the limits). *)
let arch_winner_table (rs : Search.arch_result list) : string =
  table
    [ "Arch"; "Valid"; "Invalid"; "Selected"; "Pruned winner"; "Time"; "True optimum"; "Time" ]
    (List.map
       (fun ({ ar_arch; ar_result = r } : Search.arch_result) ->
         [
           ar_arch.Gpu.Arch.name;
           string_of_int r.space_size;
           string_of_int r.invalid;
           string_of_int (List.length r.selected);
           r.selected_best.cand.desc;
           Printf.sprintf "%.4f ms" (r.selected_best.time_s *. 1000.0);
           r.best.cand.desc;
           Printf.sprintf "%.4f ms" (r.best.time_s *. 1000.0);
         ])
       rs)
