(* Files, directories and child processes for the benchmark.

   Every workload runs the program's work in a forked child, so that
   the peak resident set it reports (VmHWM) belongs to that work alone
   and no domain or thread of one run survives into the next. The
   parent never spawns a domain: children are forked from a process
   that has none. *)

let work_root = "_perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* bytes of every regular file under [p] *)
let rec du p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc e -> acc + du (Filename.concat p e))
        0 (Sys.readdir p)
  | Unix.S_REG -> (Unix.lstat p).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

(* peak resident set of this process, from /proc/self/status *)
let vm_hwm_mb () =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines "/proc/self/status")
  in
  match line with
  | None -> Float.nan
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)

let host_cores () = Domain.recommended_domain_count ()

exception Child_failed of string

(* What one workload run (or one repetition of it) produced. *)
type outcome = {
  values : (string * float) list;  (** measured quantities, by name *)
  layers : (string * float) list;  (** per-layer numbers of a traced run *)
  attempted : int;  (** operations and correctness checks attempted *)
  failed : int;
  problems : string list;  (** one line per failure *)
  notes : string list;  (** informational lines for the report *)
}

(* The children alive right now. A SIGTERM or SIGINT to the benchmark
   kills them before it exits, so none outlives it. *)
let children = ref []

let () =
  let stop _ =
    List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !children;
    List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !children;
    Unix._exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* [Unix.fork], with this process's output flushed first so that the
   child does not print it again. The child starts with no children of
   its own and the default signal handlers. *)
let fork () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      children := [];
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      0
  | pid ->
      children := pid :: !children;
      pid

let reap pid =
  let _, status = Unix.waitpid [] pid in
  children := List.filter (( <> ) pid) !children;
  status

(* Run [f] in a forked child and return its result, marshalled back
   over a pipe. The child never returns into the caller's code: it
   leaves through [Unix._exit], so the parent's at_exit handlers and
   buffered output are not run twice. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match fork () with
  | 0 ->
      Unix.close r;
      let result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (result : ('a, string) result) [];
      close_out oc;
      flush stderr;
      Unix._exit (match result with Ok _ -> 0 | Error _ -> 1)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result =
        try Some (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      match (result, reap pid) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error msg), _ -> raise (Child_failed msg)
      | _, Unix.WEXITED n -> raise (Child_failed (Printf.sprintf "child exited %d" n))
      | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
          raise (Child_failed (Printf.sprintf "child killed by signal %d" n)))

let clock = Aladin_obs.Clock.now

let timed = Aladin_obs.Clock.timed

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
