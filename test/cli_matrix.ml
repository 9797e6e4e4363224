(* The command line's exit contract as a table.

     cli_matrix GPUOPT CASES FIXTURE...

   runs GPUOPT once per row of CASES and prints each row's command line,
   then its exit code, the first line it wrote to stderr and, unless the
   exit is 124 (cmdliner's usage text follows), every further one, and
   the files it left behind that were not there before; dune diffs that
   against cli/matrix.expected.  A row is one argv split on blanks; '#'
   starts a comment line.  Each row runs in a fresh directory holding
   copies of the FIXTURE paths at the same relative paths, so no row
   sees another's files and none writes to the checked-in ones.

   The runner fails, after printing every row, on a row that breaks the
   contract: an exit code other than 0, 1 or 124 (125 is an uncaught
   exception), an exit 1 without exactly one stderr line, a signal, or
   a row still running after [timeout_s]. *)

let timeout_s = 120.0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let copy ~src ~dst =
  mkdir_p (Filename.dirname dst);
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Every path under [dir], relative to it, sorted. *)
let listing dir =
  let rec walk rel =
    let path = Filename.concat dir rel in
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun name -> walk (if rel = "" then name else Filename.concat rel name))
    else [ rel ]
  in
  List.sort compare (walk "")

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* Run [argv] in [cwd] with stderr to [err]; its exit code, or an error
   for a signal or a timeout. *)
let spawn ~cwd ~err argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let here = Sys.getcwd () in
  Sys.chdir cwd;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir here)
      (fun () -> Unix.create_process argv.(0) argv devnull devnull errfd)
  in
  Unix.close devnull;
  Unix.close errfd;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Error (Printf.sprintf "still running after %.0f s" timeout_s)
    | 0, _ ->
      Unix.sleepf 0.01;
      wait ()
    | _, Unix.WEXITED code -> Ok code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Error (Printf.sprintf "killed by signal %d" s)
  in
  wait ()

let () =
  let gpuopt, cases, fixtures =
    match Array.to_list Sys.argv with
    | _ :: gpuopt :: cases :: fixtures -> (gpuopt, cases, fixtures)
    | _ -> failwith "usage: cli_matrix GPUOPT CASES FIXTURE..."
  in
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let gpuopt = absolute gpuopt in
  let rows =
    In_channel.with_open_text cases In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "" && (String.trim l).[0] <> '#')
    |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' (String.trim l)))
  in
  let err = Filename.temp_file "cli-matrix-" ".err" in
  let broken = ref [] in
  List.iter
    (fun args ->
      let line = String.concat " " args in
      (* The row's directory sits one level down, so "../" fixtures
         stay inside the sandbox. *)
      let sandbox = Filename.temp_dir "cli-matrix-" "" in
      let cwd = Filename.concat sandbox "cwd" in
      mkdir_p cwd;
      List.iter (fun f -> copy ~src:f ~dst:(Filename.concat cwd f)) fixtures;
      let before = listing sandbox in
      let outcome = spawn ~cwd ~err (Array.of_list (gpuopt :: args)) in
      let created = List.filter (fun f -> not (List.mem f before)) (listing sandbox) in
      remove sandbox;
      let stderr = In_channel.with_open_text err In_channel.input_lines in
      Printf.printf "$ gpuopt %s\n" line;
      match outcome with
      | Error why -> broken := Printf.sprintf "%s: %s" line why :: !broken
      | Ok code ->
        (match stderr with
        | [] -> Printf.printf "%d\n" code
        | first :: rest ->
          Printf.printf "%d %s\n" code first;
          (* After a 124's first line comes cmdliner's usage text. *)
          if code <> 124 then List.iter (Printf.printf "  stderr %s\n") rest);
        List.iter (Printf.printf "  created %s\n") created;
        if not (List.mem code [ 0; 1; 124 ]) then
          broken := Printf.sprintf "%s: exit %d" line code :: !broken
        else if code = 1 && List.length stderr <> 1 then
          broken :=
            Printf.sprintf "%s: exit 1 with %d stderr lines" line (List.length stderr) :: !broken)
    rows;
  Sys.remove err;
  if !broken <> [] then begin
    List.iter (Printf.eprintf "cli_matrix: %s\n") (List.rev !broken);
    exit 1
  end
