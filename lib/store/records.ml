let magic = "aladin-records"

let version = 1

(* Lines are what [String.split_on_char '\n'] gives, less the empty piece
   after a final newline (so a missing final newline is tolerated), and
   [""] has none. Every function below walks them by index: a line is the
   range from its first byte to [line_end]. *)
let line_end s pos =
  match String.index_from_opt s pos '\n' with
  | Some i -> i
  | None -> String.length s

let count_lines s =
  let n = String.length s in
  let newlines = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get s i = '\n' then incr newlines
  done;
  if n > 0 && s.[n - 1] <> '\n' then !newlines + 1 else !newlines

(* the record line [pos, e) verifies: 8 lowercase hex digits that render
   the CRC-32 of the payload after the tab at [pos + 8] *)
let verified s pos e =
  e - pos >= 9
  && s.[pos + 8] = '\t'
  && Crc32.matches_hex (Crc32.sub s ~pos:(pos + 9) ~len:(e - pos - 9)) s ~pos

let encode doc =
  let n = String.length doc in
  let count = count_lines doc in
  let buf = Buffer.create (n + 32 + (10 * count)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\t';
  Buffer.add_string buf (string_of_int version);
  Buffer.add_char buf '\t';
  Buffer.add_string buf (string_of_int count);
  Buffer.add_char buf '\n';
  let rec go pos =
    if pos < n then begin
      let e = line_end doc pos in
      Buffer.add_string buf (Crc32.to_hex (Crc32.sub doc ~pos ~len:(e - pos)));
      Buffer.add_char buf '\t';
      Buffer.add_substring buf doc pos (e - pos);
      Buffer.add_char buf '\n';
      go (e + 1)
    end
  in
  go 0;
  Buffer.contents buf

let parse_header line =
  match String.split_on_char '\t' line with
  | [ m; v; count ] when m = magic && v = string_of_int version ->
      int_of_string_opt count
  | _ -> None

let record payload =
  String.concat "\t" [ Crc32.to_hex (Crc32.string payload); payload ]

let parse_record line =
  let n = String.length line in
  if verified line 0 n then Some (String.sub line 9 (n - 9)) else None

(* the record lines from [pos] on: each verified payload appended to
   [buf]; the counts of lines kept and dropped *)
let scan buf stored pos =
  let n = String.length stored in
  let rec go pos kept bad =
    if pos >= n then (kept, bad)
    else
      let e = line_end stored pos in
      if verified stored pos e then begin
        Buffer.add_substring buf stored (pos + 9) (e - pos - 9);
        Buffer.add_char buf '\n';
        go (e + 1) (kept + 1) bad
      end
      else go (e + 1) kept (bad + 1)
  in
  go pos 0 0

let decode stored =
  let n = String.length stored in
  if n = 0 then None
  else
    let h = line_end stored 0 in
    match parse_header (String.sub stored 0 h) with
    | None -> None
    | Some count ->
        let buf = Buffer.create n in
        let kept, bad = scan buf stored (h + 1) in
        if bad = 0 && kept = count then Some (Buffer.contents buf) else None

let decode_salvage stored =
  let n = String.length stored in
  if n = 0 then None
  else
    let h = line_end stored 0 in
    let header = parse_header (String.sub stored 0 h) in
    let buf = Buffer.create n in
    (* without a header, the first line might still be a valid record *)
    let kept, bad = scan buf stored (if header = None then 0 else h + 1) in
    if header = None && kept = 0 then None
    else
      let dropped =
        match header with Some count -> max (count - kept) bad | None -> bad
      in
      Some (Buffer.contents buf, dropped)
