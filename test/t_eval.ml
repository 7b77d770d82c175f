open Aladin_eval
open Aladin_baselines

let check = Alcotest.check

let metrics_tests =
  [
    Alcotest.test_case "counts" `Quick (fun () ->
        (* tp 2 (b, c), fp 1 (d), fn 1 (a) *)
        let s =
          Metrics.evaluate ~expected:[ "a"; "b"; "c" ] ~predicted:[ "b"; "c"; "d" ]
        in
        check (Alcotest.float 0.001) "tp / (tp + fp)" (2.0 /. 3.0) s.precision;
        check (Alcotest.float 0.001) "tp / (tp + fn)" (2.0 /. 3.0) s.recall);
    Alcotest.test_case "scores" `Quick (fun () ->
        let s =
          Metrics.evaluate ~expected:[ "a"; "b"; "c" ] ~predicted:[ "b"; "c"; "d" ]
        in
        check (Alcotest.float 0.001) "p" (2.0 /. 3.0) s.precision;
        check (Alcotest.float 0.001) "r" (2.0 /. 3.0) s.recall;
        check (Alcotest.float 0.001) "f1" (2.0 /. 3.0) s.f1);
    Alcotest.test_case "empty conventions" `Quick (fun () ->
        let s = Metrics.evaluate ~expected:[] ~predicted:[] in
        check (Alcotest.float 0.001) "p" 1.0 s.precision;
        check (Alcotest.float 0.001) "r" 1.0 s.recall);
    Alcotest.test_case "duplicates collapse" `Quick (fun () ->
        let s = Metrics.evaluate ~expected:[ "a"; "a"; "b" ] ~predicted:[ "a"; "a" ] in
        check (Alcotest.float 0.001) "p" 1.0 s.precision;
        check (Alcotest.float 0.001) "r" 0.5 s.recall);
    Alcotest.test_case "pair_key symmetric" `Quick (fun () ->
        check Alcotest.string "same" (Metrics.pair_key "x" "y") (Metrics.pair_key "y" "x"));
    Alcotest.test_case "mean" `Quick (fun () ->
        check (Alcotest.float 0.001) "empty" 0.0 (Metrics.mean []);
        check (Alcotest.float 0.001) "avg" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"precision and recall in [0,1]" ~count:100
         QCheck.(pair (list (int_bound 20)) (list (int_bound 20)))
         (fun (e, p) ->
           let s =
             Metrics.evaluate
               ~expected:(List.map string_of_int e)
               ~predicted:(List.map string_of_int p)
           in
           s.precision >= 0.0 && s.precision <= 1.0 && s.recall >= 0.0
           && s.recall <= 1.0));
  ]

(* what [f ()] writes to stdout *)
let capture_stdout f =
  let path = Tmp.file ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let report_tests =
  [
    Alcotest.test_case "render aligned" `Quick (fun () ->
        let r = Report.create ~title:"demo" ~columns:[ "name"; "value" ] in
        Report.add_row r [ "alpha"; "1" ];
        Report.add_row r [ "b"; "22" ];
        let s = capture_stdout (fun () -> Report.print r) in
        check Alcotest.bool "title" true
          (Aladin_text.Strdist.contains ~needle:"demo" s);
        check Alcotest.bool "row" true
          (Aladin_text.Strdist.contains ~needle:"alpha" s));
    Alcotest.test_case "column mismatch raises" `Quick (fun () ->
        let r = Report.create ~title:"demo" ~columns:[ "a" ] in
        match Report.add_row r [ "1"; "2" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "cells" `Quick (fun () ->
        check Alcotest.string "float" "0.500" (Report.cell_f 0.5));
  ]

(* shared corpus fixture for baseline tests *)
let corpus =
  lazy
    (Aladin_datagen.Corpus.generate
       {
         Aladin_datagen.Corpus.default_params with
         universe =
           { Aladin_datagen.Universe.default_params with n_proteins = 24;
             n_genes = 10; n_structures = 8; n_diseases = 4; n_terms = 8;
             n_families = 3 };
       })

let srs_tests =
  [
    Alcotest.test_case "spec derived from gold" `Quick (fun () ->
        let c = Lazy.force corpus in
        match Srs.spec_of_gold c.gold ~source:"uniprot" c.catalogs with
        | None -> Alcotest.fail "no spec"
        | Some spec ->
            check Alcotest.string "primary" "entry" spec.primary_relation;
            check Alcotest.bool "xrefs tagged" true (spec.xrefs <> []);
            check Alcotest.bool "manual cost > 2" true (Srs.manual_items spec > 2));
    Alcotest.test_case "integrate produces xref links" `Quick (fun () ->
        let c = Lazy.force corpus in
        let specs =
          List.filter_map
            (fun cat ->
              Srs.spec_of_gold c.gold
                ~source:(Aladin_relational.Catalog.name cat)
                c.catalogs)
            c.catalogs
        in
        let links = Srs.integrate c.catalogs specs in
        check Alcotest.bool "links found" true (links <> []);
        check Alcotest.bool "all xref kind" true
          (List.for_all
             (fun (l : Aladin_links.Link.t) -> l.kind = Aladin_links.Link.Xref)
             links));
    Alcotest.test_case "unknown source none" `Quick (fun () ->
        let c = Lazy.force corpus in
        check Alcotest.bool "none" true
          (Srs.spec_of_gold c.gold ~source:"nope" c.catalogs = None));
  ]

let cost_tests =
  [
    Alcotest.test_case "ordering of approaches" `Quick (fun () ->
        let c = Lazy.force corpus in
        let data = Cost_model.data_focused c.catalogs in
        let schema = Cost_model.schema_focused c.catalogs in
        let specs =
          List.filter_map
            (fun cat ->
              Srs.spec_of_gold c.gold
                ~source:(Aladin_relational.Catalog.name cat)
                c.catalogs)
            c.catalogs
        in
        let srs = Cost_model.srs_style specs in
        let aladin = Cost_model.aladin c.catalogs ~n_parsers_needed:1 in
        check Alcotest.bool "data most manual" true
          (data.manual_interventions > schema.manual_interventions);
        check Alcotest.bool "schema > srs-ish" true
          (schema.manual_interventions > aladin.manual_interventions);
        check Alcotest.bool "srs > aladin" true
          (srs.manual_interventions > aladin.manual_interventions));
  ]

let name_matcher_tests =
  [
    Alcotest.test_case "same names matched" `Quick (fun () ->
        let open Aladin_relational in
        let a = Catalog.create ~name:"a" in
        let _ = Catalog.create_relation a ~name:"protein" (Schema.of_names [ "accession"; "description" ]) in
        let b = Catalog.create ~name:"b" in
        let _ = Catalog.create_relation b ~name:"protein" (Schema.of_names [ "accession"; "organism" ]) in
        let ms = Name_matcher.match_corpus [ a; b ] in
        check Alcotest.bool "accession matched" true
          (List.exists
             (fun (m : Name_matcher.correspondence) ->
               m.src_attribute = "accession" && m.dst_attribute = "accession")
             ms));
    Alcotest.test_case "renamed attribute missed" `Quick (fun () ->
        let open Aladin_relational in
        let a = Catalog.create ~name:"a" in
        let _ = Catalog.create_relation a ~name:"t" (Schema.of_names [ "xkcd" ]) in
        let b = Catalog.create ~name:"b" in
        let _ = Catalog.create_relation b ~name:"u" (Schema.of_names [ "qwerty" ]) in
        check Alcotest.int "no match" 0 (List.length (Name_matcher.match_corpus [ a; b ])));
    Alcotest.test_case "corpus all ordered pairs" `Quick (fun () ->
        let open Aladin_relational in
        let mk name =
          let c = Catalog.create ~name in
          let _ = Catalog.create_relation c ~name:"t" (Schema.of_names [ "id" ]) in
          c
        in
        let ms = Name_matcher.match_corpus [ mk "a"; mk "b" ] in
        check Alcotest.int "two directions" 2 (List.length ms));
  ]

let tests =
  [
    ("eval.metrics", metrics_tests);
    ("eval.report", report_tests);
    ("baselines.srs", srs_tests);
    ("baselines.cost_model", cost_tests);
    ("baselines.name_matcher", name_matcher_tests);
  ]
