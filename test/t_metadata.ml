open Aladin_discovery
open Aladin_links
open Aladin_metadata

let check = Alcotest.check

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
    Alcotest.test_case "bad int raises" `Quick (fun () ->
        match Serial.int_of_string_exn "xyz" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"escape roundtrip" ~count:200 QCheck.string
         (fun s -> Serial.unescape (Serial.escape s) = s));
  ]

let mini_profile () =
  Source_profile.analyze (T_discovery.mini_source ())

let sample_link () =
  Link.make
    ~src:(Objref.make ~source:"a" ~relation:"entry" ~accession:"A1")
    ~dst:(Objref.make ~source:"b" ~relation:"prot" ~accession:"B1")
    ~kind:Link.Xref ~confidence:0.9 ~evidence:"test evidence"

let repository_tests =
  [
    Alcotest.test_case "add and find source" `Quick (fun () ->
        let repo = Repository.create () in
        Repository.add_source repo (mini_profile ());
        check Alcotest.bool "found" true (Repository.find_source repo "mini" <> None);
        check Alcotest.int "one" 1 (List.length (Repository.sources repo)));
    Alcotest.test_case "add replaces same name" `Quick (fun () ->
        let repo = Repository.create () in
        Repository.add_source repo (mini_profile ());
        Repository.add_source repo (mini_profile ());
        check Alcotest.int "still one" 1 (List.length (Repository.sources repo)));
    Alcotest.test_case "record contents" `Quick (fun () ->
        let repo = Repository.create () in
        Repository.add_source repo (mini_profile ());
        match Repository.find_source repo "mini" with
        | None -> Alcotest.fail "missing"
        | Some r ->
            check Alcotest.(option (pair string string)) "primary"
              (Some ("entry", "accession")) r.primary;
            check Alcotest.bool "fks" true (r.fks <> []);
            check Alcotest.bool "stats" true (r.stats <> []));
    Alcotest.test_case "save/load roundtrip" `Quick (fun () ->
        let repo = Repository.create () in
        Repository.add_source repo (mini_profile ());
        let corr =
          { Xref_disc.src_source = "a"; src_relation = "dbxref";
            src_attribute = "accession"; dst_source = "b"; dst_relation = "prot";
            dst_attribute = "accession"; matches = 5; match_frac = 0.5;
            encoded = true }
        in
        Repository.set_provenance repo "{\"trace\": 1}";
        let doc = Repository.save repo in
        (* the pair store is the one copy of links and correspondences *)
        let kinds =
          List.filter_map
            (fun line ->
              match Serial.fields line with k :: _ -> Some k | [] -> None)
            (String.split_on_char '\n' doc)
        in
        check Alcotest.bool "no link record" false (List.mem "link" kinds);
        check Alcotest.bool "no corr record" false (List.mem "corr" kinds);
        let repo2, dropped = Repository.load_salvaging doc in
        check Alcotest.int "nothing dropped" 0 dropped;
        check Alcotest.int "sources" 1 (List.length (Repository.sources repo2));
        check Alcotest.(option string) "provenance" (Repository.provenance repo)
          (Repository.provenance repo2);
        (match (Repository.find_source repo "mini", Repository.find_source repo2 "mini") with
        | Some a, Some b ->
            check Alcotest.bool "primary kept" true (a.primary = b.primary);
            check Alcotest.int "fk count" (List.length a.fks) (List.length b.fks);
            check Alcotest.int "stats count" (List.length a.stats) (List.length b.stats)
        | _ -> Alcotest.fail "source lost");
        (* a document saved when the repository still wrote them: its
           link and corr records are left to the pair store, which reads
           them from the same document, and drop nothing here *)
        let l = sample_link () in
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
        let repo3, dropped3 = Repository.load_salvaging older in
        check Alcotest.int "older: nothing dropped" 0 dropped3;
        check Alcotest.int "older: sources" 1 (List.length (Repository.sources repo3));
        check Alcotest.(option string) "older: provenance"
          (Repository.provenance repo) (Repository.provenance repo3));
    Alcotest.test_case "load rejects garbage" `Quick (fun () ->
        let repo, dropped = Repository.load_salvaging "not a repo" in
        check Alcotest.bool "dropped" true (dropped > 0);
        check Alcotest.int "no source" 0 (List.length (Repository.sources repo)));
    Alcotest.test_case "stats_summary" `Quick (fun () ->
        let repo = Repository.create () in
        Repository.add_source repo (mini_profile ());
        match Repository.stats_summary repo with
        | [ (name, rels, rows) ] ->
            check Alcotest.string "name" "mini" name;
            check Alcotest.int "rels" 5 rels;
            check Alcotest.bool "rows" true (rows > 0)
        | other -> Alcotest.fail (Printf.sprintf "%d rows" (List.length other)));
  ]

let tests =
  [ ("metadata.serial", serial_tests); ("metadata.repository", repository_tests) ]
