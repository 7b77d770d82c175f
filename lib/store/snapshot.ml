type kind = Records | Csv

type member = { path : string; kind : kind; content : string }

let format_version = 1

let magic = "aladin-store"

let manifest_name = "MANIFEST"

let quarantine_name = ".quarantine"

let snap_prefix = "snap-"

let gen_name gen = Printf.sprintf "%s%08d" snap_prefix gen

let kind_name = function
  | Records -> "records"
  | Csv -> "csv"

(* stores written before pairs.txt became a [Records] member name its kind
   "pairs" *)
let kind_of_name = function
  | "records" | "pairs" -> Some Records
  | "csv" -> Some Csv
  | _ -> None

let is_store dir =
  Sys.file_exists (Filename.concat dir manifest_name)

(* --- small fs helpers --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* files the store itself maintains; anything else makes a directory
   "foreign" and save refuses to touch it *)
let store_entry name =
  name = manifest_name || name = quarantine_name
  || String.starts_with ~prefix:snap_prefix name
  || String.ends_with ~suffix:Atomic_file.temp_suffix name

let parse_gen name =
  if String.starts_with ~prefix:snap_prefix name then
    int_of_string_opt
      (String.sub name (String.length snap_prefix)
         (String.length name - String.length snap_prefix))
  else None

let next_generation dir =
  Array.fold_left
    (fun acc e -> match parse_gen e with Some g -> max acc g | None -> acc)
    0 (Sys.readdir dir)
  + 1

(* drop temp files and every generation except [keep] *)
let sweep dir ~keep =
  Array.iter
    (fun e ->
      let path = Filename.concat dir e in
      if String.ends_with ~suffix:Atomic_file.temp_suffix e then
        try Sys.remove path with Sys_error _ -> ()
      else
        match parse_gen e with
        | Some g when g <> keep -> ( try rm_rf path with Sys_error _ -> ())
        | Some _ | None -> ())
    (Sys.readdir dir)

(* --- per-kind on-disk encoding and salvage --- *)

let encode m =
  match m.kind with
  | Records -> Records.encode m.content
  | Csv -> m.content

let decode_strict kind stored =
  match kind with
  | Records -> Records.decode stored
  | Csv -> Some stored

let csv_salvage stored =
  match Aladin_relational.Csv.read_string stored with
  | [] -> None
  | header :: rows -> (
      let arity = List.length header in
      let good, bad = List.partition (fun r -> List.length r = arity) rows in
      match (good, rows) with
      | [], _ :: _ -> None (* header itself unusable: nothing fits it *)
      | _ ->
          let buf = Buffer.create (String.length stored) in
          List.iter
            (fun r ->
              Buffer.add_string buf (Aladin_relational.Csv.render_line r);
              Buffer.add_char buf '\n')
            (header :: good);
          Some (Buffer.contents buf, List.length bad))
  | exception _ -> None

let salvage kind stored =
  match kind with
  | Records -> Records.decode_salvage stored
  | Csv -> csv_salvage stored

(* --- member path rules, for save and for every manifest read --- *)

let valid_path p =
  p <> ""
  && Filename.is_relative p
  && List.for_all
       (fun seg -> seg <> "" && seg <> "." && seg <> "..")
       (String.split_on_char '/' p)

(* the directories a member path lies under: "a/b/c" -> "a", "a/b" *)
let parent_dirs p =
  let rec go i acc =
    match String.index_from_opt p i '/' with
    | Some j -> go (j + 1) (String.sub p 0 j :: acc)
    | None -> acc
  in
  go 0 []

(* a path that is both a member and another member's directory
   ("metadata.txt" and "metadata.txt/term.csv") could be written as
   neither; a path leaving the generation directory ("../x") would be
   read, or quarantined, outside the store *)
let validate_paths paths =
  let seen = Hashtbl.create 16 in
  let dirs = Hashtbl.create 16 in
  let checked =
    List.fold_left
      (fun acc p ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if not (valid_path p) then
              Error (Printf.sprintf "invalid member path %S" p)
            else if Hashtbl.mem seen p then
              Error (Printf.sprintf "duplicate member path %S" p)
            else begin
              Hashtbl.add seen p ();
              List.iter (fun d -> Hashtbl.replace dirs d ()) (parent_dirs p);
              Ok ()
            end)
      (Ok ()) paths
  in
  match (checked, List.find_opt (Hashtbl.mem dirs) paths) with
  | Ok (), Some p ->
      Error (Printf.sprintf "member path %S is both a file and a directory" p)
  | checked, _ -> checked

(* --- manifest --- *)

type entry = { e_path : string; e_kind : kind; e_len : int; e_crc : int }

let render_manifest gen entries =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s\t%d\n" magic format_version;
  Printf.bprintf buf "snapshot\t%d\n" gen;
  List.iter
    (fun e ->
      Printf.bprintf buf "member\t%s\t%s\t%d\t%s\n" (Serial.escape e.e_path)
        (kind_name e.e_kind) e.e_len (Crc32.to_hex e.e_crc))
    entries;
  (* trailing self-checksum over everything above *)
  Printf.bprintf buf "crc\t%s\n" (Crc32.to_hex (Crc32.string (Buffer.contents buf)));
  Buffer.contents buf

let parse_manifest doc =
  let lines = String.split_on_char '\n' doc |> List.filter (fun l -> l <> "") in
  match List.rev lines with
  | last :: body_rev -> (
      let body =
        String.concat "" (List.rev_map (fun l -> l ^ "\n") body_rev)
      in
      match String.split_on_char '\t' last with
      | [ "crc"; hex ] when Crc32.of_hex hex = Some (Crc32.string body) -> (
          match List.rev body_rev with
          | header :: rest -> (
              match String.split_on_char '\t' header with
              | [ m; v ] when m = magic -> (
                  match int_of_string_opt v with
                  | Some v when v > format_version ->
                      Error
                        (Printf.sprintf
                           "manifest format version %d is newer than supported %d"
                           v format_version)
                  | Some _ -> (
                      match rest with
                      | gen_line :: members -> (
                          match String.split_on_char '\t' gen_line with
                          | [ "snapshot"; g ] -> (
                              match int_of_string_opt g with
                              | Some gen ->
                                  let parse_member line =
                                    match String.split_on_char '\t' line with
                                    | [ "member"; path; kind; len; crc ] -> (
                                        match
                                          ( kind_of_name kind,
                                            int_of_string_opt len,
                                            Crc32.of_hex crc )
                                        with
                                        | Some k, Some l, Some c ->
                                            Some
                                              {
                                                e_path = Serial.unescape path;
                                                e_kind = k;
                                                e_len = l;
                                                e_crc = c;
                                              }
                                        | _ -> None)
                                    | _ -> None
                                  in
                                  let entries = List.map parse_member members in
                                  if List.for_all Option.is_some entries then
                                    let entries = List.filter_map Fun.id entries in
                                    match
                                      validate_paths
                                        (List.map (fun e -> e.e_path) entries)
                                    with
                                    | Ok () -> Ok (gen, entries)
                                    | Error msg -> Error ("manifest: " ^ msg)
                                  else Error "manifest has an unparseable member line"
                              | None -> Error "manifest has a bad snapshot line")
                          | _ -> Error "manifest has a bad snapshot line")
                      | [] -> Error "manifest has no snapshot line")
                  | None -> Error "manifest has a bad version")
              | _ -> Error "not an ALADIN store manifest")
          | [] -> Error "empty manifest")
      | _ -> Error "manifest failed its own checksum")
  | [] -> Error "empty manifest"

let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists dir) then Error (dir ^ ": no such directory")
  else if not (Sys.file_exists path) then
    Error (dir ^ ": no MANIFEST (not an ALADIN store)")
  else
    match Atomic_file.read path with
    | doc -> (
        match parse_manifest doc with
        | Ok v -> Ok v
        | Error msg -> Error (Printf.sprintf "%s: %s" dir msg))
    | exception Sys_error msg -> Error msg

(* --- save --- *)

(* the committed generation's entries by path, each with its file, so a
   save can reuse the members that did not change; empty without a
   readable manifest *)
let committed dir =
  let tbl = Hashtbl.create 64 in
  (match read_manifest dir with
  | Ok (gen, entries) ->
      let sdir = Filename.concat dir (gen_name gen) in
      List.iter
        (fun e -> Hashtbl.replace tbl e.e_path (e, Filename.concat sdir e.e_path))
        entries
  | Error _ -> ());
  tbl

(* hard-link a member whose stored bytes equal the committed one's
   instead of writing it again. The manifest entry is only a filter: the
   bytes on disk are compared, so a damaged file is never carried
   forward. *)
let link_unchanged prev e stored path =
  match Hashtbl.find_opt prev e.e_path with
  | Some (p, old)
    when p.e_kind = e.e_kind && p.e_len = e.e_len && p.e_crc = e.e_crc -> (
      match Atomic_file.read old = stored with
      | true -> Atomic_file.link old path
      | false | (exception Sys_error _) -> false)
  | Some _ | None -> false

let save dir members =
  match validate_paths (List.map (fun m -> m.path) members) with
  | Error _ as e -> e
  | Ok () -> (
      let proceed () =
        let fresh = not (Sys.file_exists dir) in
        Atomic_file.mkdir_p dir;
        let prev = committed dir in
        let gen = next_generation dir in
        let sdir = Filename.concat dir (gen_name gen) in
        Sys.mkdir sdir 0o755;
        (* every directory this save creates or fills, from [dir] (which
           gains [sdir]; its parent too when [dir] is new) down to each
           member's parent *)
        let dirs =
          ref ([ sdir; dir ] @ if fresh then [ Filename.dirname dir ] else [])
        in
        let rec note d =
          if not (List.mem d !dirs) then begin
            dirs := d :: !dirs;
            note (Filename.dirname d)
          end
        in
        let entries =
          List.map
            (fun m ->
              let stored = encode m in
              let e =
                { e_path = m.path; e_kind = m.kind;
                  e_len = String.length stored; e_crc = Crc32.string stored }
              in
              let path = Filename.concat sdir m.path in
              Atomic_file.mkdir_p (Filename.dirname path);
              note (Filename.dirname path);
              if not (link_unchanged prev e stored path) then
                Atomic_file.write_raw path stored;
              e)
            members
        in
        (* the new generation's entries must be durable before the
           manifest that references them *)
        List.iter Atomic_file.fsync_dir !dirs;
        Atomic_file.write (Filename.concat dir manifest_name)
          (render_manifest gen entries);
        sweep dir ~keep:gen;
        Ok gen
      in
      if Sys.file_exists dir && not (Sys.is_directory dir) then
        Error (dir ^ ": not a directory")
      else if
        Sys.file_exists dir
        && (not (is_store dir))
        && Array.exists (fun e -> not (store_entry e)) (Sys.readdir dir)
      then
        Error
          (dir
         ^ ": refusing to overwrite: non-empty directory is not an ALADIN \
            store (no MANIFEST)")
      else
        try proceed () with
        | Sys_error msg -> Error msg
        | Unix.Unix_error (e, fn, arg) ->
            Error (Printf.sprintf "%s: %s %s" fn (Unix.error_message e) arg))

(* --- load / verify --- *)

let quarantine dir relpath abs reason =
  let qdir = Filename.concat dir quarantine_name in
  Atomic_file.mkdir_p qdir;
  let flat = String.map (fun c -> if c = '/' then '_' else c) relpath in
  (try Sys.rename abs (Filename.concat qdir flat) with Sys_error _ -> ());
  try Atomic_file.write_raw (Filename.concat qdir (flat ^ ".reason")) (reason ^ "\n")
  with Sys_error _ -> ()

(* [mutate]: quarantine damaged files and sweep stale ones (load) vs. a
   pure read-only classification (verify/fsck) *)
let load_gen ~mutate dir =
  match read_manifest dir with
  | Error _ as e -> e
  | Ok (gen, entries) ->
      let sdir = Filename.concat dir (gen_name gen) in
      let results =
        List.map
          (fun e ->
            let abs = Filename.concat sdir e.e_path in
            if not (Sys.file_exists abs) then (None, Load_report.Missing)
            else
              match Atomic_file.read abs with
              | exception Sys_error msg ->
                  if mutate then quarantine dir e.e_path abs ("unreadable: " ^ msg);
                  (None, Load_report.Quarantined ("unreadable: " ^ msg))
              | stored -> (
                  if
                    String.length stored = e.e_len
                    && Crc32.string stored = e.e_crc
                  then
                    match decode_strict e.e_kind stored with
                    | Some content ->
                        ( Some { path = e.e_path; kind = e.e_kind; content },
                          Load_report.Ok )
                    | None ->
                        let reason = "checksum ok but undecodable" in
                        if mutate then quarantine dir e.e_path abs reason;
                        (None, Load_report.Quarantined reason)
                  else
                    match salvage e.e_kind stored with
                    | Some (content, dropped) ->
                        ( Some { path = e.e_path; kind = e.e_kind; content },
                          Load_report.Salvaged dropped )
                    | None ->
                        let reason =
                          Printf.sprintf
                            "checksum mismatch (%d bytes, expected %d), \
                             unsalvageable %s"
                            (String.length stored) e.e_len (kind_name e.e_kind)
                        in
                        if mutate then quarantine dir e.e_path abs reason;
                        (None, Load_report.Quarantined reason)))
          entries
      in
      if mutate then sweep dir ~keep:gen;
      let report =
        {
          Load_report.dir;
          generation = gen;
          members =
            List.map2
              (fun e (_, status) -> { Load_report.path = e.e_path; status })
              entries results;
        }
      in
      Ok (List.filter_map fst results, report)

let load dir = load_gen ~mutate:true dir

let verify dir =
  match load_gen ~mutate:false dir with
  | Ok (_, report) -> Ok report
  | Error _ as e -> e

let repair dir =
  match load dir with
  | Error _ as e -> e
  | Ok (members, report) ->
      if Load_report.is_clean report then Ok report
      else (
        match save dir members with
        | Ok _ -> Ok report
        | Error e -> Error e)

let find members path =
  List.find_map
    (fun m -> if m.path = path then Some m.content else None)
    members
