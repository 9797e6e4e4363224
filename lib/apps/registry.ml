(* The application registry: every benchmark the repository reproduces,
   described uniformly so the CLI and the bench harness can enumerate
   them generically instead of hard-coding one match per app.  Each
   entry is derived by [App.Make] from the app's own description. *)

include App.Entry

(* Enumeration order is the paper's Table 4 order. *)
let all = [ Matmul.entry; Cp.entry; Sad.entry; Mri_fhd.entry ]
let names = List.map (fun e -> e.name) all
let find n = List.find_opt (fun e -> String.equal e.name n) all
