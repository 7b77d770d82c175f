open Aladin_relational
module Import_error = Aladin_resilience.Import_error

type format = Swissprot_flat | Embl_flat | Genbank_flat | Fasta_format | Obo_format | Pdb_format | Xml_format | Csv_dump

let first_meaningful_lines doc n =
  String.split_on_char '\n' doc
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" then None else Some l)
  |> List.filteri (fun i _ -> i < n)

let sniff doc =
  match first_meaningful_lines doc 5 with
  | [] -> None
  | first :: _ as lines ->
      let starts prefix s =
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix
      in
      if starts ">" first then Some Fasta_format
      else if starts "<" first then Some Xml_format
      else if starts "format-version:" first || List.exists (( = ) "[Term]") lines
      then Some Obo_format
      else if starts "HEADER" first then Some Pdb_format
      else if starts "LOCUS" first then Some Genbank_flat
      else if starts "ID " first || starts "ID\t" first then
        (* both Swiss-Prot and EMBL start with ID; EMBL's ID line is
           ';'-separated and records carry an FT feature table *)
        if String.contains first ';'
           || List.exists (fun l -> starts "FT " l) (first_meaningful_lines doc 40)
        then Some Embl_flat
        else Some Swissprot_flat
      else if String.contains first ',' then Some Csv_dump
      else None

type import = {
  catalog : Catalog.t;
  record_errors : Import_error.record_error list;
}

(* --- per-record recovery for the multi-record formats ---

   Fast path: hand the whole document to the parser. If that raises, the
   document is re-split into records, each record is test-parsed alone,
   the bad ones are collected as record errors, and the good ones are
   re-joined and parsed together — so one corrupt entry costs one entry,
   not the source. *)

let chunk_lines flush_after is_start doc =
  let lines = String.split_on_char '\n' doc in
  let finished = ref [] in
  let current = ref [] in
  let flush () =
    if !current <> [] then begin
      finished := List.rev !current :: !finished;
      current := []
    end
  in
  List.iter
    (fun line ->
      if is_start line && !current <> [] then flush ();
      current := line :: !current;
      if flush_after line then flush ())
    lines;
  flush ();
  List.rev_map (String.concat "\n") !finished |> List.rev

(* Swiss-Prot / EMBL / GenBank records end at a "//" line *)
let split_terminated = chunk_lines (fun l -> String.trim l = "//") (fun _ -> false)

(* FASTA records start at a '>' header line *)
let split_fasta =
  chunk_lines
    (fun _ -> false)
    (fun l -> String.length l > 0 && l.[0] = '>')

(* OBO: a header chunk, then one chunk per [...] stanza *)
let split_obo =
  chunk_lines
    (fun _ -> false)
    (fun l ->
      let l = String.trim l in
      String.length l > 0 && l.[0] = '[')

let recover ~name ~split parse doc =
  match parse ~name doc with
  | catalog -> Ok { catalog; record_errors = [] }
  | exception whole_doc_exn -> (
      let chunks = split doc in
      let kept, record_errors =
        List.fold_left
          (fun (kept, errs) chunk ->
            let index = List.length kept + List.length errs in
            match parse ~name chunk with
            | (_ : Catalog.t) -> (chunk :: kept, errs)
            | exception e ->
                ( kept,
                  { Import_error.index; reason = Printexc.to_string e } :: errs ))
          ([], []) chunks
      in
      let kept = List.rev kept and record_errors = List.rev record_errors in
      let fail detail =
        Error (Import_error.make ~source:name ~kind:Parse detail)
      in
      if kept = [] then fail (Printexc.to_string whole_doc_exn)
      else
        match parse ~name (String.concat "\n" kept) with
        | catalog -> Ok { catalog; record_errors }
        | exception e -> fail (Printexc.to_string e))

(* whole-document formats: no record structure to fall back on *)
let whole ~name parse doc =
  match parse ~name doc with
  | catalog -> Ok { catalog; record_errors = [] }
  | exception e ->
      Error (Import_error.make ~source:name ~kind:Parse (Printexc.to_string e))

(* a single CSV becomes a one-relation source named like the source;
   ragged rows are dropped into record errors instead of aborting *)
let import_csv ~name doc =
  match Csv.read_string doc with
  | [] | [ _ ] ->
      Error (Import_error.make ~source:name ~kind:Parse "csv has no data rows")
  | header :: rows -> (
      let arity = List.length header in
      let _, good, record_errors =
        List.fold_left
          (fun (index, good, errs) row ->
            if List.length row = arity then (index + 1, row :: good, errs)
            else
              ( index + 1,
                good,
                { Import_error.index;
                  reason =
                    Printf.sprintf "ragged row: %d fields, expected %d"
                      (List.length row) arity }
                :: errs ))
          (1, [], []) rows
      in
      let good = List.rev good and record_errors = List.rev record_errors in
      if good = [] then
        Error (Import_error.make ~source:name ~kind:Parse "no parsable csv rows")
      else
        match
          let rel =
            Csv.relation_of_records ~name ~header:true (header :: good)
          in
          let cat = Catalog.create ~name in
          Catalog.add cat rel;
          cat
        with
        | catalog -> Ok { catalog; record_errors }
        | exception e ->
            Error
              (Import_error.make ~source:name ~kind:Parse (Printexc.to_string e)))

let import_string ~name doc =
  match sniff doc with
  | None ->
      Error (Import_error.make ~source:name ~kind:Unrecognized "cannot sniff format")
  | Some Swissprot_flat ->
      recover ~name ~split:split_terminated
        (fun ~name doc -> Swissprot.parse ~name doc)
        doc
  | Some Embl_flat ->
      recover ~name ~split:split_terminated
        (fun ~name doc -> Embl.parse ~name doc)
        doc
  | Some Genbank_flat ->
      recover ~name ~split:split_terminated
        (fun ~name doc -> Genbank.parse ~name doc)
        doc
  | Some Fasta_format ->
      recover ~name ~split:split_fasta (fun ~name doc -> Fasta.parse ~name doc) doc
  | Some Obo_format ->
      recover ~name ~split:split_obo (fun ~name doc -> Obo.parse ~name doc) doc
  | Some Pdb_format -> whole ~name (fun ~name doc -> Pdb_flat.parse ~name doc) doc
  | Some Xml_format ->
      whole ~name (fun ~name doc -> Xml_shred.shred_string ~name doc) doc
  | Some Csv_dump -> import_csv ~name doc

(* importer I/O retries transient failures (interrupted/contended reads)
   with deterministic backoff before giving up to an Io import error *)
let read_file path =
  Aladin_resilience.Retry.run ~step:("read " ^ path) (fun () ->
      let ic = open_in path in
      match
        let len = in_channel_length ic in
        really_input_string ic len
      with
      | doc ->
          close_in ic;
          doc
      | exception e ->
          close_in_noerr ic;
          raise e)

let import_path ~name path =
  match
    if Sys.is_directory path then
      match Dump.load_dir ~name path with
      | catalog, record_errors -> Ok { catalog; record_errors }
    else import_string ~name (read_file path)
  with
  | result -> result
  | exception Sys_error msg -> Error (Import_error.make ~source:name ~kind:Io msg)
  | exception e ->
      Error (Import_error.make ~source:name ~kind:Parse (Printexc.to_string e))
