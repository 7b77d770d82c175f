let format_version = 2

let magic = "aladin-journal"

let journal_name = "JOURNAL"

let journal_path dir = Filename.concat dir journal_name

let store_dir dir = Filename.concat dir "store"

let exists dir = Sys.file_exists (journal_path dir)

(* the one line: a checksummed record ("<crc32 hex>\t<payload>") whose
   payload is the tab-separated escaped fields magic, version, k=v... *)
let header_line meta =
  Records.record
    (Serial.record
       (magic :: string_of_int format_version
       :: List.map (fun (k, v) -> k ^ "=" ^ v) meta))
  ^ "\n"

let split_kv field =
  match String.index_opt field '=' with
  | Some i ->
      ( String.sub field 0 i,
        String.sub field (i + 1) (String.length field - i - 1) )
  | None -> (field, "")

let create dir ~meta =
  if exists dir then Error (dir ^ ": journal already present (resume it instead)")
  else if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (dir ^ ": not a directory")
  else if
    Sys.file_exists dir
    && Array.exists
         (fun e -> not (String.ends_with ~suffix:Atomic_file.temp_suffix e))
         (Sys.readdir dir)
  then Error (dir ^ ": refusing to start a journal in a non-empty directory")
  else if List.exists (fun (k, _) -> String.contains k '=') meta then
    Error "journal meta keys must not contain '='"
  else
    match
      Atomic_file.mkdir_p dir;
      Atomic_file.write (journal_path dir) (header_line meta)
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg

let parse_header dir header =
  match Option.map Serial.fields (Records.parse_record header) with
  | None -> Error (dir ^ ": journal header failed its checksum")
  | Some (m :: v :: meta) when m = magic -> (
      match int_of_string_opt v with
      | None -> Error (dir ^ ": journal header has a bad version")
      | Some v when v > format_version ->
          Error
            (Printf.sprintf
               "%s: journal format version %d is newer than supported %d" dir v
               format_version)
      | Some v when v < format_version ->
          Error
            (Printf.sprintf
               "%s: journal format version %d predates store checkpoints and \
                cannot be resumed; re-run integrate into a fresh journal \
                directory"
               dir v)
      | Some _ -> Ok (List.map split_kv meta))
  | Some _ -> Error (dir ^ ": not an ALADIN journal")

(* only the first line is read: the intent/commit/reset records that
   journals of the earlier append-only format carry after it are
   ignored, so such a journal resumes from its store like any other *)
let plan dir =
  if not (exists dir) then Error (dir ^ ": no journal")
  else
    match Atomic_file.read (journal_path dir) with
    | exception Sys_error msg -> Error msg
    | doc ->
        parse_header dir
          (match String.index_opt doc '\n' with
          | Some i -> String.sub doc 0 i
          | None -> doc)
