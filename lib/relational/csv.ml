
let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let render_line fields = String.concat "," (List.map escape_field fields)

(* Streaming record reader: newlines only terminate a record when outside
   quotes, so quoted fields may span lines; a CR immediately before an
   unquoted record-ending LF is stripped (CRLF input), while CR/LF inside
   quotes are preserved verbatim. *)
let read_string doc =
  let n = String.length doc in
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let saw_quote = ref false in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let end_record () =
    (* a record that is a single unquoted blank-ish field is a skipped
       blank line (matching the old line-based reader) *)
    let blank =
      !fields = [] && (not !saw_quote) && String.trim (Buffer.contents buf) = ""
    in
    if blank then Buffer.clear buf
    else begin
      flush_field ();
      records := List.rev !fields :: !records
    end;
    fields := [];
    saw_quote := false
  in
  (* states: 0 = unquoted, 1 = inside quotes *)
  let rec loop i state =
    if i >= n then begin
      if state = 1 || !fields <> [] || Buffer.length buf > 0 || !saw_quote then
        end_record ()
    end
    else
      let c = doc.[i] in
      match state with
      | 0 ->
          if c = ',' then begin
            flush_field ();
            loop (i + 1) 0
          end
          else if c = '"' && Buffer.length buf = 0 then begin
            saw_quote := true;
            loop (i + 1) 1
          end
          else if c = '\r' && i + 1 < n && doc.[i + 1] = '\n' then begin
            (* unquoted CRLF is a record terminator; a CR that arrived
               inside quotes is data and never reaches this branch *)
            end_record ();
            loop (i + 2) 0
          end
          else if c = '\n' then begin
            end_record ();
            loop (i + 1) 0
          end
          else begin
            Buffer.add_char buf c;
            loop (i + 1) 0
          end
      | _ ->
          if c = '"' then
            if i + 1 < n && doc.[i + 1] = '"' then begin
              Buffer.add_char buf '"';
              loop (i + 2) 1
            end
            else loop (i + 1) 0
          else begin
            Buffer.add_char buf c;
            loop (i + 1) 1
          end
  in
  loop 0 0;
  List.rev !records

let relation_of_records ~name ~header records =
  match (records, header) with
  | [], true -> invalid_arg "Csv.relation_of_records: empty input with header"
  | [], false -> Relation.create ~name (Schema.of_names [])
  | first :: rest, _ ->
      let attrs, rows =
        if header then (first, rest)
        else (List.mapi (fun i _ -> Printf.sprintf "c%d" i) first, records)
      in
      let rel = Relation.create ~name (Schema.of_names attrs) in
      let arity = List.length attrs in
      List.iter
        (fun fields ->
          if List.length fields <> arity then
            invalid_arg
              (Printf.sprintf "Csv.relation_of_records: ragged row in %s" name);
          Relation.insert_strings rel fields)
        rows;
      rel

let write_relation rel =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (render_line (Schema.names (Relation.schema rel)));
  Buffer.add_char buf '\n';
  Relation.iter_rows
    (fun r ->
      Buffer.add_string buf
        (render_line (Array.to_list (Array.map Value.to_string r)));
      Buffer.add_char buf '\n')
    rel;
  Buffer.contents buf
