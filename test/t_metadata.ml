open Aladin_relational
open Aladin_discovery
open Aladin_links
open Aladin_metadata
module Serial = Aladin_store.Serial
module Run_report = Aladin_resilience.Run_report

let check = Alcotest.check

(* the field escape the journal, the manifest and the run reports used
   before Serial was the one codec: carriage returns went out raw *)
let records_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let old_escape_seed = 20261019

let serial_tests =
  [
    Alcotest.test_case "escape/unescape" `Quick (fun () ->
        let s = "a\tb\nc\\d" in
        check Alcotest.string "roundtrip" s (Serial.unescape (Serial.escape s));
        check Alcotest.bool "no raw tab" true
          (not (String.contains (Serial.escape s) '\t')));
    Alcotest.test_case "record/fields" `Quick (fun () ->
        let fs = [ "plain"; "with\ttab"; "with\nnewline"; "" ] in
        check Alcotest.(list string) "roundtrip" fs (Serial.fields (Serial.record fs)));
    Alcotest.test_case "float roundtrip" `Quick (fun () ->
        let f = 0.123456789 in
        check (Alcotest.float 1e-12) "exact" f
          (Serial.float_of_string_exn (Serial.float_to_string f)));
    Alcotest.test_case "non-finite floats roundtrip" `Quick (fun () ->
        check Alcotest.string "nan spelling" "nan"
          (Serial.float_to_string Float.nan);
        check Alcotest.string "inf spelling" "inf"
          (Serial.float_to_string Float.infinity);
        check Alcotest.string "-inf spelling" "-inf"
          (Serial.float_to_string Float.neg_infinity);
        check Alcotest.bool "nan roundtrip" true
          (Float.is_nan (Serial.float_of_string_exn "nan"));
        check (Alcotest.float 0.) "inf roundtrip" Float.infinity
          (Serial.float_of_string_exn (Serial.float_to_string Float.infinity));
        check (Alcotest.float 0.) "-inf roundtrip" Float.neg_infinity
          (Serial.float_of_string_exn
             (Serial.float_to_string Float.neg_infinity));
        (* negative zero keeps its sign through the hex path *)
        check Alcotest.bool "-0. sign" true
          (1. /. Serial.float_of_string_exn (Serial.float_to_string (-0.))
          = Float.neg_infinity));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"escape roundtrip" ~count:200 QCheck.string
         (fun s -> Serial.unescape (Serial.escape s) = s));
    (* journals, manifests and run reports written with the old escape
       still read back, and a field without a carriage return is
       written with the same bytes as before *)
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| old_escape_seed |])
      (QCheck.Test.make ~name:"unescape reads the old records escape"
         ~count:500
         (QCheck.string_gen_of_size
            QCheck.Gen.(int_range 0 24)
            (QCheck.Gen.oneofl [ '\\'; '\t'; '\n'; '\r'; 't'; 'n'; 'r'; 'a' ]))
         (fun s ->
           Serial.unescape (records_escape s) = s
           && (String.contains s '\r' || Serial.escape s = records_escape s)));
  ]

(* The writer this document had while the repository kept a copy of
   every source: [record_of_profile] copied each profile into a
   [source_record], and [save] wrote the records, then the reports and
   the provenance. Kept as the reference {!Repository.render} must
   equal byte for byte. *)
module Record_writer = struct
  type source_record = {
    source : string;
    relations : (string * int) list;
    primary : (string * string) option;
    fks : Inclusion.fk list;
    stats : Col_stats.t list;
    sample : (string * string * string list) list;
  }

  let record_of_profile (sp : Source_profile.t) =
    let catalog = Profile.catalog sp.profile in
    let stats = Profile.all_stats sp.profile in
    {
      source = Catalog.name catalog;
      relations =
        List.map
          (fun r -> (Relation.name r, Relation.cardinality r))
          (Catalog.relations catalog);
      primary = Source_profile.primary_accession sp;
      fks = sp.fks;
      stats;
      sample =
        List.map
          (fun (cs : Col_stats.t) ->
            ( cs.relation, cs.attribute,
              List.map Value.to_string cs.sample
              |> List.filteri (fun i _ -> i < 5) ))
          stats;
    }

  let card_to_string = function
    | Inclusion.One_to_one -> "1:1"
    | Inclusion.One_to_many -> "1:N"

  let origin_to_string = function
    | `Declared -> "declared"
    | `Inferred -> "inferred"

  let save records reports provenance =
    let buf = Buffer.create 4096 in
    let line fs =
      Buffer.add_string buf (Serial.record fs);
      Buffer.add_char buf '\n'
    in
    line [ "aladin-metadata"; "1" ];
    List.iter
      (fun r ->
        line [ "source"; r.source ];
        List.iter
          (fun (rel, n) -> line [ "relation"; rel; string_of_int n ])
          r.relations;
        (match r.primary with
        | Some (rel, attr) -> line [ "primary"; rel; attr ]
        | None -> ());
        List.iter
          (fun (fk : Inclusion.fk) ->
            line
              [ "fk"; fk.src_relation; fk.src_attribute; fk.dst_relation;
                fk.dst_attribute; card_to_string fk.cardinality;
                origin_to_string fk.origin ])
          r.fks;
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
          r.stats;
        List.iter
          (fun (rel, attr, vals) -> line ("sample" :: rel :: attr :: vals))
          r.sample)
      records;
    List.iter
      (fun r -> line [ "runreport"; Run_report.serialize r ])
      reports;
    (match provenance with
    | Some doc -> line [ "provenance"; doc ]
    | None -> ());
    Buffer.contents buf
end

let mini_profile () =
  Source_profile.analyze (T_discovery.mini_source ())

let sample_link () =
  Link.make
    ~src:(Objref.make ~source:"a" ~relation:"entry" ~accession:"A1")
    ~dst:(Objref.make ~source:"b" ~relation:"prot" ~accession:"B1")
    ~kind:Link.Xref ~confidence:0.9 ~evidence:"test evidence"

(* the small datagen corpus's warehouse, its profiles and the document
   it renders *)
let corpus_document () =
  let w = Lazy.force T_core.warehouse in
  let profiles =
    List.map
      (fun (e : Profile_list.entry) -> e.sp)
      (Profile_list.entries (Aladin.Warehouse.profiles w))
  in
  let reports = Aladin.Warehouse.run_reports w in
  let provenance = T_core.provenance w in
  (w, profiles, reports, provenance,
   Repository.render ~profiles ~reports ~provenance)

let kinds_of doc =
  List.filter_map
    (fun line -> match Serial.fields line with k :: _ -> Some k | [] -> None)
    (String.split_on_char '\n' doc)

let repository_tests =
  [
    Alcotest.test_case "save/load roundtrip" `Quick (fun () ->
        let sp = mini_profile () in
        let report =
          { Run_report.source = "mini"; quarantined = false;
            steps = [ Run_report.step ~seconds:0.25 "import" Run_report.Ok ] }
        in
        let doc =
          Repository.render ~profiles:[ sp ] ~reports:[ report ]
            ~provenance:(Some "{\"trace\": 1}")
        in
        (* the pair store is the one copy of links and correspondences *)
        let kinds = kinds_of doc in
        check Alcotest.bool "no link record" false (List.mem "link" kinds);
        check Alcotest.bool "no corr record" false (List.mem "corr" kinds);
        check Alcotest.bool "source block" true (List.mem "source" kinds);
        let read = Repository.read doc in
        check Alcotest.int "nothing dropped" 0 read.dropped;
        check Alcotest.bool "reports" true (read.reports = [ report ]);
        check Alcotest.(option string) "provenance" (Some "{\"trace\": 1}")
          read.provenance;
        (* a document saved when the repository still wrote them: its
           link and corr records are left to the pair store, which reads
           them from the same document, and drop nothing here *)
        let l = sample_link () in
        let corr =
          { Xref_disc.src_source = "a"; src_relation = "dbxref";
            src_attribute = "accession"; dst_source = "b"; dst_relation = "prot";
            dst_attribute = "accession"; matches = 5; match_frac = 0.5;
            encoded = true }
        in
        let older =
          doc
          ^ Serial.record
              [ "link"; l.src.source; l.src.relation; l.src.accession;
                l.dst.source; l.dst.relation; l.dst.accession;
                Link.kind_name l.kind; Serial.float_to_string l.confidence;
                l.evidence ]
          ^ "\n"
          ^ Serial.record
              [ "corr"; corr.src_source; corr.src_relation; corr.src_attribute;
                corr.dst_source; corr.dst_relation; corr.dst_attribute;
                string_of_int corr.matches;
                Serial.float_to_string corr.match_frac;
                string_of_bool corr.encoded ]
          ^ "\n"
        in
        let read3 = Repository.read older in
        check Alcotest.int "older: nothing dropped" 0 read3.dropped;
        check Alcotest.bool "older: reports" true (read3.reports = [ report ]);
        check Alcotest.(option string) "older: provenance" read.provenance
          read3.provenance);
    Alcotest.test_case "load rejects garbage" `Quick (fun () ->
        let read = Repository.read "not a repo" in
        check Alcotest.bool "dropped" true (read.dropped > 0);
        check Alcotest.int "no report" 0 (List.length read.reports);
        check Alcotest.(option string) "no provenance" None read.provenance);
    Alcotest.test_case "render equals the per-source record writer" `Quick
      (fun () ->
        let w, profiles, reports, provenance, doc = corpus_document () in
        check Alcotest.int "every source" 8 (List.length profiles);
        check Alcotest.string "same bytes"
          (Record_writer.save
             (List.map Record_writer.record_of_profile profiles)
             reports provenance)
          doc;
        check Alcotest.string "the warehouse's document" doc
          (Aladin.Warehouse.metadata w));
    Alcotest.test_case "read returns the reports and the provenance" `Quick
      (fun () ->
        let _, _, reports, provenance, doc = corpus_document () in
        let read = Repository.read doc in
        check Alcotest.int "nothing dropped" 0 read.dropped;
        check Alcotest.int "a report per source" 8 (List.length read.reports);
        check Alcotest.bool "reports" true (read.reports = reports);
        check Alcotest.bool "provenance present" true (provenance <> None);
        check Alcotest.(option string) "provenance" provenance read.provenance);
    Alcotest.test_case "a bad run report drops its line alone" `Quick
      (fun () ->
        let _, _, reports, provenance, doc = corpus_document () in
        let bad = ref false in
        let damaged =
          String.split_on_char '\n' doc
          |> List.map (fun line ->
                 match Serial.fields line with
                 | [ "runreport"; _ ] when not !bad ->
                     bad := true;
                     Serial.record [ "runreport"; "not a report" ]
                 | _ -> line)
          |> String.concat "\n"
        in
        let read = Repository.read damaged in
        check Alcotest.int "one line dropped" 1 read.dropped;
        check Alcotest.bool "the other reports" true
          (read.reports = List.tl reports);
        check Alcotest.(option string) "provenance" provenance read.provenance);
  ]

let tests =
  [ ("metadata.serial", serial_tests); ("metadata.repository", repository_tests) ]
