let magic = "aladin-records"

let version = 1

(* logical doc -> lines; tolerate a missing final newline *)
let split_lines doc =
  if doc = "" then []
  else
    let parts = String.split_on_char '\n' doc in
    match List.rev parts with "" :: rest -> List.rev rest | _ -> parts

let join_lines = function
  | [] -> ""
  | lines -> String.concat "\n" lines ^ "\n"

let encode doc =
  let lines = split_lines doc in
  let buf = Buffer.create (String.length doc + (16 * List.length lines)) in
  Printf.bprintf buf "%s\t%d\t%d\n" magic version (List.length lines);
  List.iter
    (fun l -> Printf.bprintf buf "%s\t%s\n" (Crc32.to_hex (Crc32.string l)) l)
    lines;
  Buffer.contents buf

let parse_header line =
  match String.split_on_char '\t' line with
  | [ m; v; count ] when m = magic && v = string_of_int version ->
      int_of_string_opt count
  | _ -> None

let record payload = Crc32.to_hex (Crc32.string payload) ^ "\t" ^ payload

(* a stored record line -> its payload, when the checksum verifies *)
let parse_record line =
  match String.index_opt line '\t' with
  | None -> None
  | Some i -> (
      let payload = String.sub line (i + 1) (String.length line - i - 1) in
      match Crc32.of_hex (String.sub line 0 i) with
      | Some crc when crc = Crc32.string payload -> Some payload
      | Some _ | None -> None)

let decode stored =
  match split_lines stored with
  | [] -> None
  | header :: rest -> (
      match parse_header header with
      | None -> None
      | Some count ->
          let payloads = List.map parse_record rest in
          if List.length payloads = count && List.for_all Option.is_some payloads
          then Some (join_lines (List.filter_map Fun.id payloads))
          else None)

let decode_salvage stored =
  match split_lines stored with
  | [] -> None
  | first :: rest ->
      let header = parse_header first in
      (* without a header, the first line might still be a valid record *)
      let records = if header = None then first :: rest else rest in
      let kept = List.filter_map parse_record records in
      let bad = List.length records - List.length kept in
      if header = None && kept = [] then None
      else
        let dropped =
          match header with
          | Some count -> max (count - List.length kept) bad
          | None -> bad
        in
        Some (join_lines kept, dropped)
