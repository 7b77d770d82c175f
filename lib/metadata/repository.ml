open Aladin_relational
open Aladin_discovery
module Run_report = Aladin_resilience.Run_report
module Serial = Aladin_store.Serial

let card_to_string = function
  | Inclusion.One_to_one -> "1:1"
  | Inclusion.One_to_many -> "1:N"

let origin_to_string = function `Declared -> "declared" | `Inferred -> "inferred"

let header_fields = [ "aladin-metadata"; "1" ]

let render ~profiles ~reports ~provenance =
  let buf = Buffer.create 4096 in
  let line fs =
    Buffer.add_string buf (Serial.record fs);
    Buffer.add_char buf '\n'
  in
  line header_fields;
  List.iter
    (fun (sp : Source_profile.t) ->
      let catalog = Profile.catalog sp.profile in
      let stats = Profile.all_stats sp.profile in
      line [ "source"; Catalog.name catalog ];
      List.iter
        (fun r ->
          line
            [ "relation"; Relation.name r;
              string_of_int (Relation.cardinality r) ])
        (Catalog.relations catalog);
      (match Source_profile.primary_accession sp with
      | Some (rel, attr) -> line [ "primary"; rel; attr ]
      | None -> ());
      List.iter
        (fun (fk : Inclusion.fk) ->
          line
            [ "fk"; fk.src_relation; fk.src_attribute; fk.dst_relation;
              fk.dst_attribute; card_to_string fk.cardinality;
              origin_to_string fk.origin ])
        sp.fks;
      List.iter
        (fun (cs : Col_stats.t) ->
          line
            [ "stats"; cs.relation; cs.attribute; string_of_int cs.rows;
              string_of_int cs.nulls; string_of_int cs.distinct;
              string_of_int cs.min_len; string_of_int cs.max_len;
              Serial.float_to_string cs.avg_len;
              Serial.float_to_string cs.numeric_frac;
              Serial.float_to_string cs.alpha_frac;
              string_of_bool cs.all_unique ])
        stats;
      List.iter
        (fun (cs : Col_stats.t) ->
          line
            ("sample" :: cs.relation :: cs.attribute
            :: List.filteri (fun i _ -> i < 5)
                 (List.map Value.to_string cs.sample)))
        stats)
    profiles;
  List.iter (fun r -> line [ "runreport"; Run_report.serialize r ]) reports;
  (match provenance with
  | Some doc -> line [ "provenance"; doc ]
  | None -> ());
  Buffer.contents buf

type contents = {
  reports : Run_report.t list;
  provenance : string option;
  dropped : int;
}

(* the record's tag, its first field; a tag is never escaped *)
let tag line =
  match String.index_opt line '\t' with
  | Some i -> String.sub line 0 i
  | None -> line

let read doc =
  let lines = String.split_on_char '\n' doc |> List.filter (( <> ) "") in
  let body, lost_header =
    match lines with
    | first :: rest when Serial.fields first = header_fields -> (rest, 0)
    | [] -> ([], 0)
    | _ :: _ -> (lines, 1)
  in
  let reports, provenance, dropped =
    List.fold_left
      (fun (reports, provenance, dropped) line ->
        match tag line with
        | "source" | "relation" | "primary" | "fk" | "stats" | "sample"
        | "link" | "corr" ->
            (reports, provenance, dropped)
        | "runreport" -> (
            match
              Option.bind
                (match Serial.fields line with
                | [ _; doc ] -> Some doc
                | _ -> None)
                Run_report.deserialize
            with
            | Some r -> (r :: reports, provenance, dropped)
            | None -> (reports, provenance, dropped + 1))
        | "provenance" -> (
            match Serial.fields line with
            | [ _; prov ] -> (reports, Some prov, dropped)
            | _ -> (reports, provenance, dropped + 1))
        | _ -> (reports, provenance, dropped + 1))
      ([], None, lost_header) body
  in
  { reports = List.rev reports; provenance; dropped }
