open Aladin
open Aladin_relational

let check = Alcotest.check

let small_corpus =
  lazy
    (Aladin_datagen.Corpus.generate
       {
         Aladin_datagen.Corpus.default_params with
         universe =
           { Aladin_datagen.Universe.default_params with n_proteins = 24;
             n_genes = 10; n_structures = 8; n_diseases = 4; n_terms = 8;
             n_families = 3 };
       })

let warehouse = lazy (Warehouse.integrate (Lazy.force small_corpus).catalogs)

let warehouse_tests =
  [
    Alcotest.test_case "all sources integrated" `Quick (fun () ->
        let w = Lazy.force warehouse in
        check Alcotest.int "eight" 8 (List.length (Warehouse.sources w)));
    Alcotest.test_case "every primary discovered correctly" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let c = Lazy.force small_corpus in
        List.iter
          (fun (sg : Aladin_datagen.Gold.source_gold) ->
            match Warehouse.profile w sg.source with
            | None -> Alcotest.fail ("no profile for " ^ sg.source)
            | Some sp ->
                check
                  Alcotest.(option (pair string string))
                  sg.source
                  (Some (sg.primary_relation, sg.accession_attribute))
                  (Aladin_discovery.Source_profile.primary_accession sp))
          c.gold.sources);
    Alcotest.test_case "links discovered" `Quick (fun () ->
        let w = Lazy.force warehouse in
        check Alcotest.bool "nonempty" true (Warehouse.links w <> []);
        check Alcotest.bool "report" true (Warehouse.link_report w <> None));
    Alcotest.test_case "xref recall against gold" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let c = Lazy.force small_corpus in
        let predicted =
          Warehouse.links w
          |> List.filter (fun (l : Aladin_links.Link.t) -> l.kind = Aladin_links.Link.Xref)
          |> List.map (fun (l : Aladin_links.Link.t) ->
                 Aladin_eval.Metrics.pair_key
                   (Aladin_links.Objref.to_string l.src)
                   (Aladin_links.Objref.to_string l.dst))
        in
        let expected =
          List.map (fun (a, b) -> Aladin_eval.Metrics.pair_key a b) c.gold.xrefs
        in
        let s = Aladin_eval.Metrics.evaluate ~expected ~predicted in
        check Alcotest.bool "recall >= 0.95" true (s.recall >= 0.95);
        check Alcotest.bool "precision >= 0.95" true (s.precision >= 0.95));
    Alcotest.test_case "duplicates flagged between protein sources" `Quick (fun () ->
        let w = Lazy.force warehouse in
        match Warehouse.duplicates w with
        | None -> Alcotest.fail "no dup result"
        | Some d -> check Alcotest.bool "clusters" true (d.clusters <> []));
    Alcotest.test_case "dups explanation ends in the link's confidence" `Quick
      (fun () ->
        let w = Lazy.force warehouse in
        match Warehouse.duplicates w with
        | None -> Alcotest.fail "no dup result"
        | Some d ->
            let explained = Aladin_dup.Dup_detect.explain d in
            check Alcotest.int "every link explained" (List.length d.links)
              (List.length explained);
            List.iter
              (fun ((l : Aladin_links.Link.t), text) ->
                let lines = String.split_on_char '\n' (String.trim text) in
                let last = List.nth lines (List.length lines - 1) in
                check Alcotest.string
                  (Aladin_links.Objref.to_string l.src ^ " ~ "
                  ^ Aladin_links.Objref.to_string l.dst)
                  (Printf.sprintf "similarity = %.3f" l.confidence)
                  last)
              explained);
    Alcotest.test_case "repository populated" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let repo = Warehouse.repository w in
        check Alcotest.int "sources" 8
          (List.length (Aladin_metadata.Repository.sources repo));
        check Alcotest.bool "correspondences" true
          (Aladin_metadata.Repository.correspondences repo <> []));
    Alcotest.test_case "run report covers five steps" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.create () in
        match c.catalogs with
        | first :: _ ->
            let report = Warehouse.add_source w first in
            check Alcotest.int "five" 5 (List.length report.steps);
            check
              Alcotest.(list string)
              "step names"
              [ "import"; "primary discovery"; "secondary discovery";
                "link discovery"; "duplicate detection" ]
              (List.map
                 (fun (s : Warehouse.Run_report.step_report) -> s.step)
                 report.steps);
            check Alcotest.bool "clean" true
              (Warehouse.Run_report.is_clean report);
            check Alcotest.bool "stored in repository" true
              (Warehouse.run_report w (Catalog.name first) <> None)
        | [] -> Alcotest.fail "no catalogs");
    Alcotest.test_case "incremental equals batch" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let batch = Lazy.force warehouse in
        let inc = Warehouse.create () in
        List.iter (fun cat -> ignore (Warehouse.add_source inc cat)) c.catalogs;
        check Alcotest.int "same links"
          (List.length (Warehouse.links batch))
          (List.length (Warehouse.links inc)));
    Alcotest.test_case "incremental homology equals full recompute" `Quick
      (fun () ->
        let c = Lazy.force small_corpus in
        let inc = Lazy.force warehouse in
        let full =
          Warehouse.integrate
            ~config:{ Config.default with incremental_seq = false }
            c.catalogs
        in
        let seq_keys w =
          Warehouse.links w
          |> List.filter (fun (l : Aladin_links.Link.t) ->
                 l.kind = Aladin_links.Link.Seq_similarity)
          |> List.map (fun (l : Aladin_links.Link.t) ->
                 Aladin_eval.Metrics.pair_key
                   (Aladin_links.Objref.to_string l.src)
                   (Aladin_links.Objref.to_string l.dst))
          |> List.sort_uniq String.compare
        in
        check Alcotest.(list string) "identical seq links" (seq_keys full)
          (seq_keys inc));
  ]

let table_access_tests =
  [
    Alcotest.test_case "resolve qualified" `Quick (fun () ->
        let w = Lazy.force warehouse in
        check Alcotest.bool "uniprot.entry" true
          (Warehouse.resolve_table w "uniprot.entry" <> None));
    Alcotest.test_case "resolve unique bare name" `Quick (fun () ->
        let w = Lazy.force warehouse in
        (* "structure" exists only in pdb *)
        check Alcotest.bool "structure" true
          (Warehouse.resolve_table w "structure" <> None));
    Alcotest.test_case "ambiguous bare name none" `Quick (fun () ->
        let w = Lazy.force warehouse in
        (* "comment" exists in several sources *)
        check Alcotest.bool "comment ambiguous" true
          (Warehouse.resolve_table w "comment" = None));
    Alcotest.test_case "sql over warehouse" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let r = Warehouse.sql w "SELECT accession FROM uniprot.entry LIMIT 5" in
        check Alcotest.int "five" 5 (Relation.cardinality r));
    Alcotest.test_case "sql join across relations" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let r =
          Warehouse.sql w
            "SELECT accession, seq_text FROM uniprot.entry JOIN \
             uniprot.sequence_data ON uniprot.entry.entry_id = \
             uniprot.sequence_data.entry_id LIMIT 3"
        in
        check Alcotest.bool "rows" true (Relation.cardinality r > 0));
    Alcotest.test_case "search over warehouse" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let s = Warehouse.search w in
        check Alcotest.bool "objects indexed" true
          (Aladin_access.Search.object_count s > 50));
    Alcotest.test_case "browser views an object" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let b = Warehouse.browser w in
        match Aladin_access.Browser.objects b with
        | obj :: _ ->
            check Alcotest.bool "view" true (Aladin_access.Browser.view b obj <> None)
        | [] -> Alcotest.fail "no objects");
    Alcotest.test_case "path index built" `Quick (fun () ->
        let w = Lazy.force warehouse in
        ignore (Warehouse.path_index w));
    Alcotest.test_case "sql over a shredded XML source" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let r =
          Warehouse.sql w
            "SELECT COUNT(*) FROM bind.partner JOIN bind.interaction ON \
             bind.partner.parent_id = bind.interaction.interaction_id"
        in
        match (Relation.row r 0).(0) with
        | Value.Int n -> check Alcotest.bool "partners joined" true (n > 0)
        | _ -> Alcotest.fail "not an int");
    Alcotest.test_case "aggregate over warehouse" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let r =
          Warehouse.sql w
            "SELECT organism_name, COUNT(*) FROM uniprot.entry JOIN \
             uniprot.organism ON uniprot.entry.organism_id = \
             uniprot.organism.organism_id GROUP BY organism_name"
        in
        check Alcotest.bool "groups" true (Relation.cardinality r > 1));
    Alcotest.test_case "link kinds all present" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let kinds =
          Warehouse.links w
          |> List.map (fun (l : Aladin_links.Link.t) -> l.kind)
          |> List.sort_uniq compare
        in
        List.iter
          (fun k ->
            check Alcotest.bool (Aladin_links.Link.kind_name k) true
              (List.mem k kinds))
          [ Aladin_links.Link.Xref; Aladin_links.Link.Seq_similarity;
            Aladin_links.Link.Duplicate ]);
  ]

let change_tests =
  [
    Alcotest.test_case "small change defers" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        match Warehouse.notify_change w ~source:"uniprot" ~changed_rows:1 with
        | `Defer -> ()
        | `Reanalyze -> Alcotest.fail "should defer");
    Alcotest.test_case "accumulated changes trip threshold" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        let rows =
          match Warehouse.catalog w "uniprot" with
          | Some cat -> Catalog.total_rows cat
          | None -> 0
        in
        match Warehouse.notify_change w ~source:"uniprot" ~changed_rows:rows with
        | `Reanalyze -> ()
        | `Defer -> Alcotest.fail "should reanalyze");
    Alcotest.test_case "update_source reanalyzes over threshold" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        match Warehouse.catalog w "uniprot" with
        | None -> Alcotest.fail "no catalog"
        | Some cat -> (
            let n = Catalog.total_rows cat in
            let upd = Warehouse.update_source w cat ~changed_rows:n in
            (match upd.Warehouse.outcome with
            | `Reanalyzed (r : Warehouse.Run_report.t) ->
                check Alcotest.int "steps" 5 (List.length r.steps)
            | `Deferred -> Alcotest.fail "should reanalyze");
            match upd.Warehouse.delta with
            | None -> Alcotest.fail "reanalysis should report a delta audit"
            | Some a ->
                check Alcotest.bool "recomputed pairs touch uniprot" true
                  (a.Delta.recomputed_pairs <> []
                  && List.for_all
                       (fun (x, y) -> x = "uniprot" || y = "uniprot")
                       a.Delta.recomputed_pairs);
                List.iter
                  (fun p ->
                    check Alcotest.bool "reused pair not recomputed" false
                      (List.mem p a.Delta.recomputed_pairs))
                  a.Delta.reused_pairs));
  ]

let system_tests =
  [
    Alcotest.test_case "import_file fasta" `Quick (fun () ->
        let path = Filename.temp_file "aladin" ".fasta" in
        let oc = open_out path in
        output_string oc ">Q1 test\nACGTACGT\n";
        close_out oc;
        let im =
          match Aladin_system.import_file path with
          | Ok im -> im
          | Error e -> Alcotest.fail (Aladin_system.Import_error.to_string e)
        in
        Sys.remove path;
        check Alcotest.bool "entry" true (Catalog.mem im.catalog "entry");
        check Alcotest.int "no record errors" 0 (List.length im.record_errors));
    Alcotest.test_case "integrate_paths" `Quick (fun () ->
        let path = Filename.temp_file "aladin" ".fasta" in
        let oc = open_out path in
        output_string oc ">Q1 test protein\nACGTACGTACGTACGTACGTA\n>Q2 other\nTTTTACGTACGTACGTACGTA\n";
        close_out oc;
        let w = Aladin_system.integrate_paths [ path ] in
        Sys.remove path;
        check Alcotest.int "one source" 1 (List.length (Warehouse.sources w)));
    Alcotest.test_case "summary mentions sources" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let s = Aladin_system.summary w in
        check Alcotest.bool "uniprot" true
          (Aladin_text.Strdist.contains ~needle:"uniprot" s);
        check Alcotest.bool "links line" true
          (Aladin_text.Strdist.contains ~needle:"links:" s));
  ]

let feedback_tests =
  [
    Alcotest.test_case "reject_link filters" `Quick (fun () ->
        let fb = Feedback.create () in
        let l =
          Aladin_links.Link.make
            ~src:(Aladin_links.Objref.make ~source:"a" ~relation:"r" ~accession:"A1")
            ~dst:(Aladin_links.Objref.make ~source:"b" ~relation:"r" ~accession:"B1")
            ~kind:Aladin_links.Link.Duplicate ~confidence:0.8 ~evidence:"t"
        in
        Feedback.reject_link fb l;
        check Alcotest.bool "rejected" true (Feedback.is_link_rejected fb l);
        (* symmetric kinds match in either direction *)
        let flipped = { l with src = l.dst; dst = l.src } in
        check Alcotest.bool "flipped rejected" true
          (Feedback.is_link_rejected fb flipped);
        check Alcotest.int "filtered" 0 (List.length (Feedback.filter_links fb [ l ])));
    Alcotest.test_case "reject_fk filters" `Quick (fun () ->
        let fb = Feedback.create () in
        let fk =
          { Aladin_discovery.Inclusion.src_relation = "comment";
            src_attribute = "entry_id"; dst_relation = "entry";
            dst_attribute = "entry_id";
            cardinality = Aladin_discovery.Inclusion.One_to_many;
            origin = `Inferred }
        in
        Feedback.reject_fk fb ~source:"mini" fk;
        check Alcotest.bool "rejected" true (Feedback.is_fk_rejected fb ~source:"mini" fk);
        check Alcotest.bool "other source fine" false
          (Feedback.is_fk_rejected fb ~source:"other" fk);
        check Alcotest.int "filtered" 0
          (List.length (Feedback.filter_fks fb ~source:"mini" [ fk ])));
    Alcotest.test_case "save/load roundtrip" `Quick (fun () ->
        let fb = Feedback.create () in
        let l =
          Aladin_links.Link.make
            ~src:(Aladin_links.Objref.make ~source:"a" ~relation:"r" ~accession:"A1")
            ~dst:(Aladin_links.Objref.make ~source:"b" ~relation:"r" ~accession:"B1")
            ~kind:Aladin_links.Link.Xref ~confidence:0.8 ~evidence:"t"
        in
        Feedback.reject_link fb l;
        let fb2 = Feedback.load (Feedback.save fb) in
        check Alcotest.bool "persisted" true (Feedback.is_link_rejected fb2 l);
        check Alcotest.int "counts" 1 (Feedback.rejected_link_count fb2));
    Alcotest.test_case "load rejects garbage" `Quick (fun () ->
        match Feedback.load "nope" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "warehouse reject_link survives relink" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        match Warehouse.links w with
        | [] -> Alcotest.fail "no links"
        | l :: _ ->
            let before = List.length (Warehouse.links w) in
            Warehouse.reject_link w l;
            check Alcotest.int "one fewer" (before - 1)
              (List.length (Warehouse.links w));
            (* force a full re-discovery: the rejection must persist *)
            (match Warehouse.catalog w l.src.Aladin_links.Objref.source with
            | Some cat -> ignore (Warehouse.add_source w cat)
            | None -> ());
            check Alcotest.bool "still gone" true
              (not
                 (List.exists
                    (fun l2 -> Aladin_links.Link.same_endpoints l l2)
                    (Warehouse.links w))));
    Alcotest.test_case "warehouse reject_fk reanalyzes" `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        match Warehouse.profile w "uniprot" with
        | None -> Alcotest.fail "no profile"
        | Some sp ->
            (match sp.fks with
            | fk :: _ ->
                let n = List.length sp.fks in
                Warehouse.reject_fk w ~source:"uniprot" fk;
                (match Warehouse.profile w "uniprot" with
                | Some sp2 ->
                    check Alcotest.bool "fewer fks" true (List.length sp2.fks < n)
                | None -> Alcotest.fail "profile lost")
            | [] -> Alcotest.fail "no fks"));
  ]

let save_dir_exn w dir =
  match Warehouse.save_dir w dir with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("save_dir: " ^ msg)

let persistence_tests =
  [
    Alcotest.test_case "save/load roundtrip (trusted)" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Filename.temp_file "aladin" "wh" in
        Sys.remove dir;
        save_dir_exn w dir;
        let w2, report = Warehouse.load_dir dir in
        check Alcotest.bool "clean load" true
          (Aladin_store.Load_report.is_clean report);
        check Alcotest.(list string) "sources" (Warehouse.sources w)
          (Warehouse.sources w2);
        check Alcotest.int "links preserved"
          (List.length (Warehouse.links w))
          (List.length (Warehouse.links w2));
        (* browsing works on the restored warehouse *)
        let b = Warehouse.browser w2 in
        match Aladin_access.Browser.objects b with
        | obj :: _ ->
            check Alcotest.bool "view works" true
              (Aladin_access.Browser.view b obj <> None)
        | [] -> Alcotest.fail "no objects after load");
    Alcotest.test_case "load with reanalyze rediscovers" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Filename.temp_file "aladin" "wh2" in
        Sys.remove dir;
        save_dir_exn w dir;
        let w2, _report = Warehouse.load_dir ~reanalyze:true dir in
        (* re-discovery on the round-tripped data finds the same links *)
        check Alcotest.int "same link count"
          (List.length (Warehouse.links w))
          (List.length (Warehouse.links w2)));
    Alcotest.test_case "sql works after load" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Filename.temp_file "aladin" "wh3" in
        Sys.remove dir;
        save_dir_exn w dir;
        let w2, _report = Warehouse.load_dir dir in
        let n w = Relation.cardinality (Warehouse.sql w "SELECT * FROM uniprot.entry") in
        check Alcotest.int "same rows" (n w) (n w2));
    Alcotest.test_case "save refuses to clobber a non-store directory" `Quick
      (fun () ->
        let w = Lazy.force warehouse in
        let dir = Filename.temp_file "aladin" "wh4" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let oc = open_out (Filename.concat dir "precious.txt") in
        output_string oc "user data\n";
        close_out oc;
        (match Warehouse.save_dir w dir with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "clobbered a non-store directory");
        check Alcotest.bool "user file untouched" true
          (Sys.file_exists (Filename.concat dir "precious.txt")));
  ]

(* state a save -> load round trip must carry: rejections and the
   profiles add_source computed *)
let roundtrip_tests =
  let temp_store tag =
    let dir = Filename.temp_file "aladin" tag in
    Sys.remove dir;
    dir
  in
  let render_profile w name =
    match Warehouse.profile w name with
    | Some sp -> Format.asprintf "%a" Aladin_discovery.Source_profile.pp sp
    | None -> Alcotest.fail ("no profile for " ^ name)
  in
  let fks w name =
    match Warehouse.profile w name with
    | Some sp ->
        List.map (Format.asprintf "%a" Aladin_discovery.Inclusion.pp_fk) sp.fks
    | None -> Alcotest.fail ("no profile for " ^ name)
  in
  let rejected_link () =
    let w = Warehouse.integrate (Lazy.force small_corpus).catalogs in
    match Warehouse.links w with
    | [] -> Alcotest.fail "no links"
    | l :: _ ->
        Warehouse.reject_link w l;
        (w, l)
  in
  [
    Alcotest.test_case "rejected link stays gone after load and add" `Quick
      (fun () ->
        let w, l = rejected_link () in
        let dir = temp_store "rl" in
        save_dir_exn w dir;
        let w2, _ = Warehouse.load_dir dir in
        check Alcotest.int "rejection loaded" 1
          (Feedback.rejected_link_count (Warehouse.feedback w2));
        (match Warehouse.catalog w2 l.src.Aladin_links.Objref.source with
        | Some cat -> ignore (Warehouse.add_source w2 cat)
        | None -> Alcotest.fail "source lost");
        check Alcotest.bool "still gone" false
          (List.exists
             (fun l2 -> Aladin_links.Link.same_endpoints l l2)
             (Warehouse.links w2)));
    Alcotest.test_case "save/load/save keeps the rejection" `Quick (fun () ->
        let w, _ = rejected_link () in
        let dir = temp_store "rl1" and dir2 = temp_store "rl2" in
        save_dir_exn w dir;
        let w2, _ = Warehouse.load_dir dir in
        save_dir_exn w2 dir2;
        let feedback_txt d =
          match Aladin_store.Snapshot.load d with
          | Ok (members, _) -> Aladin_store.Snapshot.find members "feedback.txt"
          | Error e -> Alcotest.fail e
        in
        check Alcotest.(option string) "feedback.txt round-trips"
          (Some (Feedback.save (Warehouse.feedback w)))
          (feedback_txt dir2));
    Alcotest.test_case "rejected fk stays rejected through load" `Quick
      (fun () ->
        let w = Warehouse.integrate (Lazy.force small_corpus).catalogs in
        (match Warehouse.profile w "uniprot" with
        | Some { fks = fk :: _; _ } -> Warehouse.reject_fk w ~source:"uniprot" fk
        | Some _ | None -> Alcotest.fail "uniprot has no fks");
        let before = fks w "uniprot" in
        let dir = temp_store "rf" in
        save_dir_exn w dir;
        List.iter
          (fun reanalyze ->
            let w2, _ = Warehouse.load_dir ~reanalyze dir in
            check
              Alcotest.(list string)
              (Printf.sprintf "fks (reanalyze=%b)" reanalyze)
              before (fks w2 "uniprot"))
          [ false; true ]);
    Alcotest.test_case "loaded profiles honour max_path_len" `Quick (fun () ->
        let config = { Config.default with max_path_len = 1 } in
        let w =
          Warehouse.integrate ~config (Lazy.force small_corpus).catalogs
        in
        let dir = temp_store "mpl" in
        save_dir_exn w dir;
        let w2, _ = Warehouse.load_dir ~config dir in
        List.iter
          (fun name ->
            check Alcotest.string ("profile of " ^ name) (render_profile w name)
              (render_profile w2 name))
          (Warehouse.sources w));
  ]

let link_query_warehouse_tests =
  [
    Alcotest.test_case "warehouse link_query traverses" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let lq = Warehouse.link_query w in
        match Warehouse.links w with
        | (l : Aladin_links.Link.t) :: _ ->
            let hits =
              Aladin_access.Link_query.run lq ~start:[ l.src ]
                ~steps:[ Aladin_access.Link_query.step () ]
            in
            check Alcotest.bool "reaches dst" true
              (List.exists
                 (fun (h : Aladin_access.Link_query.hit) ->
                   Aladin_links.Objref.equal h.endpoint l.dst)
                 hits)
        | [] -> Alcotest.fail "no links");
  ]

let config_ok doc =
  match Config.of_string doc with
  | Ok cfg -> cfg
  | Error msg -> Alcotest.fail ("unexpected config error: " ^ msg)

let config_tests =
  [
    Alcotest.test_case "of_string overrides" `Quick (fun () ->
        let cfg =
          config_ok
            "# comment\naccession.min_length = 6\ndup.min_similarity = 0.9\nlinks.enable_text = false\n"
        in
        check Alcotest.int "min_length" 6 cfg.accession.min_length;
        check (Alcotest.float 0.001) "dup" 0.9 cfg.dup.min_similarity;
        check Alcotest.bool "text off" false cfg.linker.enable_text;
        (* untouched keys keep defaults *)
        check Alcotest.int "path len" Config.default.max_path_len cfg.max_path_len);
    Alcotest.test_case "unknown key rejected" `Quick (fun () ->
        match Config.of_string "nonsense.key = 1" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "no error");
    Alcotest.test_case "bad value reported with line number" `Quick (fun () ->
        match Config.of_string "domains = 2\naccession.min_length = soon" with
        | Error msg ->
            check Alcotest.bool "mentions line 2" true
              (Aladin_text.Strdist.contains ~needle:"line 2" msg)
        | Ok _ -> Alcotest.fail "no error");
    Alcotest.test_case "to_string/of_string roundtrip" `Quick (fun () ->
        let cfg =
          { Config.default with max_path_len = 9; change_threshold = 0.25 }
        in
        let cfg2 = config_ok (Config.to_string cfg) in
        check Alcotest.int "path len" 9 cfg2.max_path_len;
        check (Alcotest.float 0.001) "threshold" 0.25 cfg2.change_threshold);
    Alcotest.test_case "budget keys parse" `Quick (fun () ->
        let cfg =
          config_ok "budget.links.seq = 0\nbudget.links = 2.5\nbudget.dups = none"
        in
        check Alcotest.bool "seq zero" true (cfg.budgets.seq_pass = Some 0.0);
        check Alcotest.bool "links set" true (cfg.budgets.links = Some 2.5);
        check Alcotest.bool "dups off" true (cfg.budgets.dups = None));
    Alcotest.test_case "budgets roundtrip" `Quick (fun () ->
        let cfg =
          { Config.default with
            budgets = { Config.no_budgets with primary = Some 1.5 } }
        in
        let cfg2 = config_ok (Config.to_string cfg) in
        check Alcotest.bool "primary" true (cfg2.budgets.primary = Some 1.5);
        check Alcotest.bool "secondary" true (cfg2.budgets.secondary = None));
    Alcotest.test_case "bad budget rejected" `Quick (fun () ->
        match Config.of_string "budget.links = fast" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "no error");
  ]

let shell_tests =
  let shell = lazy (Shell.create (Lazy.force warehouse)) in
  let out line =
    match Shell.execute (Lazy.force shell) line with
    | `Output s -> s
    | `Quit -> Alcotest.fail "unexpected quit"
  in
  let contains needle s = Aladin_text.Strdist.contains ~needle s in
  [
    Alcotest.test_case "help lists commands" `Quick (fun () ->
        check Alcotest.bool "has search" true (contains "search" (out "help")));
    Alcotest.test_case "sources summary" `Quick (fun () ->
        check Alcotest.bool "uniprot listed" true (contains "uniprot" (out "sources")));
    Alcotest.test_case "view by accession then follow" `Quick (fun () ->
        let sh = Lazy.force shell in
        let w = Lazy.force warehouse in
        (* pick an object with links *)
        let obj =
          match Warehouse.links w with
          | (l : Aladin_links.Link.t) :: _ -> l.src
          | [] -> Alcotest.fail "no links"
        in
        (match Shell.execute sh ("view " ^ obj.source ^ " " ^ obj.accession) with
        | `Output s ->
            check Alcotest.bool "shows accession" true
              (contains obj.accession s)
        | `Quit -> Alcotest.fail "quit");
        match Shell.execute sh "follow 0" with
        | `Output s -> check Alcotest.bool "followed" true (contains "===" s)
        | `Quit -> Alcotest.fail "quit");
    Alcotest.test_case "sql through shell" `Quick (fun () ->
        check Alcotest.bool "row count shown" true
          (contains "rows" (out "sql SELECT * FROM uniprot.entry LIMIT 2")));
    Alcotest.test_case "sql error surfaced" `Quick (fun () ->
        check Alcotest.bool "error text" true (contains "error" (out "sql SELECT")));
    Alcotest.test_case "search through shell" `Quick (fun () ->
        check Alcotest.bool "some output" true (String.length (out "search kinase") > 0));
    Alcotest.test_case "unknown command" `Quick (fun () ->
        check Alcotest.bool "hint" true (contains "help" (out "frobnicate")));
    Alcotest.test_case "quit" `Quick (fun () ->
        match Shell.execute (Lazy.force shell) "quit" with
        | `Quit -> ()
        | `Output _ -> Alcotest.fail "no quit");
    Alcotest.test_case "empty line" `Quick (fun () ->
        check Alcotest.string "empty" "" (out "   "));
  ]

(* the delta contract: an incremental mutation (add onto a loaded store,
   update in place) must land on the byte-identical link set of a cold
   [integrate] over the same catalogs *)
let delta_tests =
  let render w = Aladin_access.Link_export.to_csv (Warehouse.links w) in
  [
    Alcotest.test_case "add onto a loaded store matches cold integrate"
      `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let cold = render (Warehouse.integrate c.catalogs) in
        let rec split_last = function
          | [] -> Alcotest.fail "empty corpus"
          | [ x ] -> ([], x)
          | x :: rest ->
              let init, last = split_last rest in
              (x :: init, last)
        in
        let init, last = split_last c.catalogs in
        let dir = Filename.temp_file "aladin_delta" "" in
        Sys.remove dir;
        let w0 = Warehouse.integrate init in
        (match Warehouse.save_dir w0 dir with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let w1, _ = Warehouse.load_dir dir in
        ignore (Warehouse.add_source w1 last);
        check Alcotest.string "links byte-identical" cold (render w1);
        (match Warehouse.last_delta w1 with
        | None -> Alcotest.fail "add_source reported no delta audit"
        | Some a ->
            let name = Aladin_relational.Catalog.name last in
            check Alcotest.bool "every recomputed pair touches the new source"
              true
              (List.for_all
                 (fun (x, y) -> x = name || y = name)
                 a.Delta.recomputed_pairs));
        let rec rm path =
          if Sys.is_directory path then begin
            Array.iter (fun f -> rm (Filename.concat path f))
              (Sys.readdir path);
            Sys.rmdir path
          end
          else Sys.remove path
        in
        rm dir);
    Alcotest.test_case "update in place matches cold integrate" `Quick
      (fun () ->
        let c = Lazy.force small_corpus in
        let cold = render (Warehouse.integrate c.catalogs) in
        let w = Warehouse.integrate c.catalogs in
        (* replace a middle source with identical content: only its pairs
           recompute, and the merged links must not move a byte *)
        let cat = List.nth c.catalogs (List.length c.catalogs / 2) in
        let upd =
          Warehouse.update_source w cat ~changed_rows:(Catalog.total_rows cat)
        in
        (match upd.Warehouse.outcome with
        | `Reanalyzed _ -> ()
        | `Deferred -> Alcotest.fail "full-source change deferred");
        check Alcotest.string "links byte-identical" cold (render w));
    Alcotest.test_case "edited update matches cold integrate" `Quick
      (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        let seq_fields cat =
          Aladin_links.Seq_links.sequence_fields
            Aladin_links.Seq_links.default_params
            (Aladin_links.Profile_list.restrict (Warehouse.profiles w)
               [ Catalog.name cat ])
        in
        (* point-mutate every third value of the source's sequence
           fields, so a pass that reads the replaced sequences drifts *)
        let edit seed cat =
          let rng = Aladin_datagen.Rng.create seed in
          let fields = seq_fields cat in
          let out = Catalog.create ~name:(Catalog.name cat) in
          List.iter
            (fun r ->
              let schema = Relation.schema r in
              let cols =
                List.filter_map
                  (fun (f : Aladin_links.Seq_links.seq_field) ->
                    if f.relation = Relation.name r then
                      Schema.index_of schema f.attribute
                    else None)
                  fields
              in
              let nr =
                Catalog.create_relation out ~name:(Relation.name r) schema
              in
              Relation.iteri_rows
                (fun i row ->
                  let row = Array.copy row in
                  if i mod 3 = 0 then
                    List.iter
                      (fun ai ->
                        match Value.as_text row.(ai) with
                        | Some s when s <> "" ->
                            row.(ai) <-
                              Value.text
                                (Aladin_datagen.Seq_gen.mutate rng ~rate:0.1 s)
                        | Some _ | None -> ())
                      cols;
                  Relation.insert nr row)
                r)
            (Catalog.relations cat);
          List.iter (Catalog.declare out) (Catalog.constraints cat);
          out
        in
        let with_seqs =
          List.filter (fun cat -> seq_fields cat <> []) c.catalogs
        in
        check Alcotest.bool "two sources carry sequences" true
          (List.length with_seqs >= 2);
        (* a middle source first, then another one; each update must land
           on a cold integration of the catalogs in their new order *)
        let mid = List.nth with_seqs (List.length with_seqs / 2) in
        let second = List.hd with_seqs in
        List.iteri
          (fun i cat ->
            let edited = edit (i + 1) cat in
            let upd =
              Warehouse.update_source w edited
                ~changed_rows:(Catalog.total_rows edited)
            in
            (match upd.Warehouse.outcome with
            | `Reanalyzed _ -> ()
            | `Deferred -> Alcotest.fail "full-source change deferred");
            check Alcotest.string
              (Printf.sprintf "links after updating %s" (Catalog.name cat))
              (render (Warehouse.integrate (Warehouse.catalogs w)))
              (render w))
          [ mid; second ]);
  ]

let tests =
  [
    ("core.warehouse", warehouse_tests);
    ("core.delta", delta_tests);
    ("core.shell", shell_tests);
    ("core.config", config_tests);
    ("core.table_access", table_access_tests);
    ("core.changes", change_tests);
    ("core.system", system_tests);
    ("core.feedback", feedback_tests);
    ("core.persistence", persistence_tests);
    ("core.roundtrip", roundtrip_tests);
    ("core.link_query", link_query_warehouse_tests);
  ]
