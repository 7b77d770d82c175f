(* Temporary files and directories for the tests. Every name is made in
   the temp directory ($TMPDIR, else /tmp) and removed, with everything
   under it, when the test runner exits, so a run leaves nothing there. *)

let made = ref []

(* removes a symlink itself, never what it points to; a missing path is
   a no-op *)
let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () = at_exit (fun () -> List.iter rm_rf !made)

(* a new empty file whose name ends in [suffix] *)
let file suffix =
  let p = Filename.temp_file "aladin" suffix in
  made := p :: !made;
  p

(* a new name with nothing at it yet, for a directory or a store the
   test creates *)
let path tag =
  let p = file tag in
  Sys.remove p;
  p
