type committed = {
  seq : int;
  step : string;
  generation : int;
  info : (string * string) list;
}

type replay = {
  meta : (string * string) list;
  committed : committed list;
  pending : (int * string) option;
  dropped : int;
}

type t = { dir : string; mutable next_seq : int }

let format_version = 2

let magic = "aladin-journal"

let journal_name = "JOURNAL"

let store_name = "store"

let journal_path dir = Filename.concat dir journal_name

let store_dir dir = Filename.concat dir store_name

let dir t = t.dir

let exists dir = Sys.file_exists (journal_path dir)

(* --- line codec: each journal line is one checksummed record
   ("<crc32 hex>\t<payload>") whose payload is tab-separated escaped
   fields --- *)

let render_line fields =
  Records.record (Serial.record fields) ^ "\n"

let parse_line line =
  Option.map Serial.fields (Records.parse_record line)

let header_line meta =
  render_line
    (magic :: string_of_int format_version
    :: List.map (fun (k, v) -> k ^ "=" ^ v) meta)

let split_kv field =
  match String.index_opt field '=' with
  | Some i ->
      ( String.sub field 0 i,
        String.sub field (i + 1) (String.length field - i - 1) )
  | None -> (field, "")

let intent_line ~seq ~step = render_line [ "intent"; string_of_int seq; step ]

let commit_line ~seq ~step ~generation ~info =
  render_line
    ("commit" :: string_of_int seq :: step :: string_of_int generation
    :: List.concat_map (fun (k, v) -> [ k; v ]) info)

(* inverse of [commit_line] *)
let parse_commit_fields fields =
  let rec pairs = function
    | [] -> Some []
    | k :: v :: rest -> Option.map (fun tl -> (k, v) :: tl) (pairs rest)
    | [ _ ] -> None
  in
  match fields with
  | seq :: step :: generation :: kvs -> (
      match (int_of_string_opt seq, int_of_string_opt generation, pairs kvs) with
      | Some seq, Some generation, Some info ->
          Some { seq; step; generation; info }
      | _ -> None)
  | _ -> None

(* --- create / replay --- *)

let create dir ~meta =
  if exists dir then Error (dir ^ ": journal already present (resume it instead)")
  else if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (dir ^ ": not a directory")
  else if
    Sys.file_exists dir
    && Array.exists
         (fun e ->
           e <> store_name
           && not (String.ends_with ~suffix:Atomic_file.temp_suffix e))
         (Sys.readdir dir)
  then
    Error
      (dir ^ ": refusing to start a journal in a non-empty foreign directory")
  else if List.exists (fun (k, _) -> String.contains k '=') meta then
    Error "journal meta keys must not contain '='"
  else
    match
      Atomic_file.mkdir_p dir;
      Atomic_file.write (journal_path dir) (header_line meta)
    with
    | () -> Ok { dir; next_seq = 0 }
    | exception Sys_error msg -> Error msg

(* a valid line can only be followed by valid lines; the first CRC
   failure is a torn tail — everything from there on is dropped
   (normally just the one trailing record an interrupted append left) *)
let rec parse_records acc = function
  | [] -> (List.rev acc, 0)
  | line :: rest -> (
      match parse_line line with
      | Some fields -> parse_records (fields :: acc) rest
      | None -> (List.rev acc, 1 + List.length rest))

let replay_records ~meta lines =
  let all, dropped = parse_records [] lines in
  (* a reset voids every record before it *)
  let records =
    List.fold_left
      (fun acc fields -> if fields = [ "reset" ] then [] else fields :: acc)
      [] all
    |> List.rev
  in
  let committed =
    List.filter_map
      (function "commit" :: rest -> parse_commit_fields rest | _ -> None)
      records
  in
  (* the last intent no commit record answers: the step in flight *)
  let pending =
    List.fold_left
      (fun acc fields ->
        match fields with
        | [ "intent"; seq; step ] -> (
            match int_of_string_opt seq with
            | Some seq when not (List.exists (fun c -> c.seq = seq) committed)
              ->
                Some (seq, step)
            | Some _ | None -> acc)
        | _ -> acc)
      None records
  in
  { meta = List.map split_kv meta; committed; pending; dropped }

let replay dir =
  if not (exists dir) then Error (dir ^ ": no journal")
  else
    match Atomic_file.read (journal_path dir) with
    | exception Sys_error msg -> Error msg
    | doc -> (
        match String.split_on_char '\n' doc |> List.filter (( <> ) "") with
        | [] -> Error (dir ^ ": empty journal")
        | header :: lines -> (
            match parse_line header with
            | None -> Error (dir ^ ": journal header failed its checksum")
            | Some (m :: v :: meta) when m = magic -> (
                match int_of_string_opt v with
                | None -> Error (dir ^ ": journal header has a bad version")
                | Some v when v > format_version ->
                    Error
                      (Printf.sprintf
                         "%s: journal format version %d is newer than supported \
                          %d"
                         dir v format_version)
                | Some v when v < format_version ->
                    Error
                      (Printf.sprintf
                         "%s: journal format version %d predates store \
                          checkpoints and cannot be resumed; re-run integrate \
                          into a fresh journal directory"
                         dir v)
                | Some _ -> Ok (replay_records ~meta lines))
            | Some _ -> Error (dir ^ ": not an ALADIN journal")))

(* heal the log's tail before appending to it. Every complete append is
   one newline-terminated line (escaping keeps raw newlines out of
   payloads), so a kill mid-append leaves an unterminated fragment; a
   fresh append would otherwise concatenate onto it and corrupt the NEW
   record as well. The log is rewritten, atomically, as exactly the
   records replay kept, each terminated: a torn fragment is gone, and
   an append killed between its last payload byte and the terminator —
   itself a complete, valid record — is kept with its '\n'. *)
let heal_tail dir ~dropped =
  let path = journal_path dir in
  let doc = Atomic_file.read path in
  let n = String.length doc in
  if dropped > 0 || (n > 0 && doc.[n - 1] <> '\n') then
    let rec valid = function
      | line :: rest when parse_line line <> None -> (line ^ "\n") :: valid rest
      | _ -> []
    in
    String.split_on_char '\n' doc
    |> List.filter (( <> ) "")
    |> valid |> String.concat "" |> Atomic_file.write path

let open_resume dir =
  match replay dir with
  | Error _ as e -> e
  | Ok r -> (
      match heal_tail dir ~dropped:r.dropped with
      | exception Sys_error msg -> Error msg
      | () ->
          let next_seq =
            List.fold_left
              (fun acc (c : committed) -> max acc (c.seq + 1))
              (match r.pending with Some (s, _) -> s + 1 | None -> 0)
              r.committed
          in
          Ok ({ dir; next_seq }, r))

(* --- intent / commit --- *)

let intent t ~step =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Atomic_file.append (journal_path t.dir) (intent_line ~seq ~step);
  seq

let reset t =
  Atomic_file.append (journal_path t.dir) (render_line [ "reset" ]);
  t.next_seq <- 0

let commit t ~seq ~step ~generation ~info =
  Atomic_file.append (journal_path t.dir)
    (commit_line ~seq ~step ~generation ~info);
  { seq; step; generation; info }
