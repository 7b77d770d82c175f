let temp_suffix = ".aladin-tmp"

let fsync_fd fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      fsync_fd fd;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_raw path content =
  Fault.op ();
  let oc = open_out_bin path in
  let n = String.length content in
  let k = Fault.request n in
  (try
     output_substring oc content 0 k;
     flush oc;
     fsync_fd (Unix.descr_of_out_channel oc)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  if k < n then raise Fault.Killed

let write path content =
  let tmp = path ^ temp_suffix in
  write_raw tmp content;
  Fault.check_op ();
  Fault.op ();
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let link src dst =
  Fault.op ();
  match Unix.link src dst with
  | () -> true
  | exception Unix.Unix_error _ -> false

let read path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  match really_input_string ic len with
  | doc ->
      close_in ic;
      doc
  | exception e ->
      close_in_noerr ic;
      raise e
