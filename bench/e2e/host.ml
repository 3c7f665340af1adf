(* The host block every result carries, and CPU pinning through taskset. *)

(* Reads to EOF: /proc files report no length. *)
let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let lines path = match read_file path with Some s -> String.split_on_char '\n' s | None -> []

let field_of line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

(* "0-1,4" -> [0; 1; 4] *)
let parse_cpu_list s =
  String.split_on_char ',' (String.trim s)
  |> List.concat_map (fun part ->
         match String.split_on_char '-' part with
         | [ a ] when a <> "" -> [ int_of_string a ]
         | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
         | _ -> [])

(* The CPUs this process may run on (what nproc counts). *)
let cpus =
  lazy
    (match List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list") (lines "/proc/self/status") with
    | Some l -> (
      match parse_cpu_list (field_of l) with [] -> [ 0 ] | l -> l)
    | None -> [ 0 ])

let nproc () = List.length (Lazy.force cpus)

let cpu_model () =
  match List.find_opt (String.starts_with ~prefix:"model name") (lines "/proc/cpuinfo") with
  | Some l -> field_of l
  | None -> "unknown"

(* The commit of a git checkout, read from .git without running git. *)
let git_commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let head = trim head in
    if not (String.starts_with ~prefix:"ref: " head) then head
    else
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some c -> trim c
      | None -> (
        let packed = lines ".git/packed-refs" in
        match
          List.find_opt
            (fun l ->
              match String.split_on_char ' ' l with [ _; name ] -> name = r | _ -> false)
            packed
        with
        | Some l -> List.hd (String.split_on_char ' ' l)
        | None -> "unknown")

let which prog =
  let path = Option.value (Sys.getenv_opt "PATH") ~default:"/usr/bin:/bin" in
  List.find_map
    (fun dir ->
      let p = Filename.concat dir prog in
      if dir <> "" && Sys.file_exists p then Some p else None)
    (String.split_on_char ':' path)

let taskset = lazy (which "taskset")

let pinned () = Option.is_some (Lazy.force taskset)

(* The pin map: the leader main (id 0) alone on the first CPU; main 1,
   the auxiliary and the load generator on the second; the ring process on
   the first. With one CPU everything shares it. *)
let cpu_for role =
  let cs = Lazy.force cpus in
  let first = List.nth cs 0 and second = List.nth cs (min 1 (List.length cs - 1)) in
  match role with `Leader | `Ring -> first | `Follower | `Aux | `Generator -> second

let pin_map () =
  List.map
    (fun (name, role) -> (name, cpu_for role))
    [
      ("main0", `Leader);
      ("main1", `Follower);
      ("aux2", `Aux);
      ("generator", `Generator);
      ("ring", `Ring);
    ]

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Pin every thread of process [pid] to [cpu]; a no-op without taskset. *)
let pin pid cpu =
  match Lazy.force taskset with
  | None -> ()
  | Some ts ->
    let null = devnull () in
    let child =
      Unix.create_process ts [| ts; "-a"; "-cp"; string_of_int cpu; string_of_int pid |] null null null
    in
    ignore (Unix.waitpid [] child);
    Unix.close null

let pin_self cpu = pin (Unix.getpid ()) cpu

(* argv prefixed with taskset when it exists. *)
let pinned_argv cpu argv =
  match Lazy.force taskset with
  | None -> argv
  | Some ts -> Array.append [| ts; "-c"; string_of_int cpu |] argv

let block ~modes =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("cpu_model", Json.Str (cpu_model ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ("pinned", Json.Bool (pinned ()));
      ("pin_map", Json.Obj (List.map (fun (n, c) -> (n, Json.Num (float_of_int c))) (pin_map ())));
      ("modes", Json.Obj (List.map (fun (w, m) -> (w, Json.Str m)) modes));
    ]
