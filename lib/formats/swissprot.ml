open Aladin_relational

let source_name = "swissprot"

type tables = {
  bioentry : Relation.t;
  taxon : Relation.t;
  biosequence : Relation.t;
  dbxref : Relation.t;
  term : Relation.t;
  bioentry_term : Relation.t;
  reference : Relation.t;
}

let make_tables cat =
  let rel name cols =
    Catalog.create_relation cat ~name (Schema.of_names cols)
  in
  (* sequential lets: record-field evaluation order is unspecified, and the
     catalog should list relations in schema order *)
  let bioentry =
    rel "bioentry" [ "bioentry_id"; "accession"; "name"; "description"; "taxon_id" ]
  in
  let taxon = rel "taxon" [ "taxon_id"; "taxon_name" ] in
  let biosequence =
    rel "biosequence" [ "bioentry_id"; "alphabet"; "seq_length"; "biosequence_str" ]
  in
  let dbxref = rel "dbxref" [ "dbxref_id"; "bioentry_id"; "dbname"; "accession" ] in
  let term = rel "term" [ "term_id"; "term_name" ] in
  let bioentry_term = rel "bioentry_term" [ "bioentry_id"; "term_id" ] in
  let reference =
    rel "reference" [ "reference_id"; "bioentry_id"; "medline_id"; "title" ]
  in
  { bioentry; taxon; biosequence; dbxref; term; bioentry_term; reference }

type counters = {
  mutable next_entry : int;
  mutable next_taxon : int;
  mutable next_dbxref : int;
  mutable next_term : int;
  mutable next_ref : int;
  taxa : (string, int) Hashtbl.t;
  terms : (string, int) Hashtbl.t;
}

let fresh_counters () =
  {
    next_entry = 1;
    next_taxon = 1;
    next_dbxref = 1;
    next_term = 1;
    next_ref = 1;
    taxa = Hashtbl.create 16;
    terms = Hashtbl.create 64;
  }

let taxon_id tables counters name =
  match Hashtbl.find_opt counters.taxa name with
  | Some id -> id
  | None ->
      let id = counters.next_taxon in
      counters.next_taxon <- id + 1;
      Hashtbl.add counters.taxa name id;
      Relation.insert tables.taxon [| Value.Int id; Value.text name |];
      id

let term_id tables counters name =
  match Hashtbl.find_opt counters.terms name with
  | Some id -> id
  | None ->
      let id = counters.next_term in
      counters.next_term <- id + 1;
      Hashtbl.add counters.terms name id;
      Relation.insert tables.term [| Value.Int id; Value.text name |];
      id

(* the sequence body is every line after SQ; generators emit wrapped
   sequence lines whose first token parses as the pseudo-code ".." or as a
   bare sequence chunk *)
let record_sequence lines =
  let after_sq = ref false in
  let parts = ref [] in
  List.iter
    (fun (l : Line_format.line) ->
      if l.code = "SQ" then after_sq := true
      else if l.code = ".." then parts := l.payload :: !parts
      else if !after_sq then parts := (l.code ^ l.payload) :: !parts)
    lines;
  String.concat "" (List.rev !parts)

let parse_record tables counters lines =
  let entry_id = counters.next_entry in
  counters.next_entry <- entry_id + 1;
  let name = Option.value (Line_format.joined ~code:"ID" lines) ~default:"" in
  let name =
    match String.index_opt name ' ' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let accession =
    match Line_format.joined ~code:"AC" lines with
    | Some ac -> (match Line_format.split_list ac with a :: _ -> a | [] -> "")
    | None -> ""
  in
  let description = Option.value (Line_format.joined ~code:"DE" lines) ~default:"" in
  let organism = Option.value (Line_format.joined ~code:"OS" lines) ~default:"" in
  let tax = taxon_id tables counters organism in
  Relation.insert tables.bioentry
    [| Value.Int entry_id; Value.text accession; Value.text name;
       Value.text description; Value.Int tax |];
  List.iter
    (fun kw_line ->
      List.iter
        (fun kw ->
          let tid = term_id tables counters kw in
          Relation.insert tables.bioentry_term [| Value.Int entry_id; Value.Int tid |])
        (Line_format.split_list kw_line))
    (Line_format.all ~code:"KW" lines);
  List.iter
    (fun dr ->
      match Line_format.split_list dr with
      | dbname :: acc :: _ ->
          let id = counters.next_dbxref in
          counters.next_dbxref <- id + 1;
          Relation.insert tables.dbxref
            [| Value.Int id; Value.Int entry_id; Value.text dbname; Value.text acc |]
      | [ _ ] | [] -> ())
    (Line_format.all ~code:"DR" lines);
  List.iter
    (fun rx ->
      match Line_format.split_list rx with
      | _medline :: pmid :: rest ->
          let id = counters.next_ref in
          counters.next_ref <- id + 1;
          let title = String.concat "; " rest in
          Relation.insert tables.reference
            [| Value.Int id; Value.Int entry_id; Value.text pmid; Value.text title |]
      | [ _ ] | [] -> ())
    (Line_format.all ~code:"RX" lines);
  let seq = record_sequence lines in
  if seq <> "" then begin
    let alphabet =
      if String.for_all (fun c -> String.contains "ACGTacgt" c) seq then "dna"
      else "protein"
    in
    Relation.insert tables.biosequence
      [| Value.Int entry_id; Value.text alphabet; Value.Int (String.length seq);
         Value.text seq |]
  end

let parse ?(name = source_name) doc =
  let cat = Catalog.create ~name in
  let tables = make_tables cat in
  let counters = fresh_counters () in
  List.iter (parse_record tables counters) (Line_format.records doc);
  cat
