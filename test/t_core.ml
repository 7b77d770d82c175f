open Aladin
open Aladin_relational

let check = Alcotest.check

let run_report = T_resilience.run_report

(* the provenance record of the warehouse's metadata document *)
let provenance w = (Aladin_metadata.Repository.read (Warehouse.metadata w)).provenance

(* two links with the same endpoints (either way round for a symmetric
   kind) and kind *)
let same_endpoints (a : Aladin_links.Link.t) (b : Aladin_links.Link.t) =
  let a = Aladin_links.Link.normalized a and b = Aladin_links.Link.normalized b in
  a.kind = b.kind
  && Aladin_links.Objref.equal a.src b.src
  && Aladin_links.Objref.equal a.dst b.dst

(* the feedback.txt line that rejects [fk] of [source] *)
let fk_rejection ~source (fk : Aladin_discovery.Inclusion.fk) =
  Aladin_store.Serial.record
    (List.map String.lowercase_ascii
       [ "fk"; source; fk.src_relation; fk.src_attribute; fk.dst_relation;
         fk.dst_attribute ])
  ^ "\n"

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

let engine = lazy (Engine.create (Lazy.force warehouse))

let query_exn eng sql =
  match Engine.query eng sql with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("unexpected query error: " ^ msg)

(* left:LA001 and right:RB901 describe the same protein, so the
   duplicate pass flags them, but LA001 cross-references right:QC552: its
   [dbxref.accession] holds another object's accession, which xref
   discovery finds and the duplicate pass leaves out of the comparison *)
let xref_duplicate_sources () =
  let source src key_attr rows =
    let cat = Catalog.create ~name:src in
    let rel =
      Catalog.create_relation cat ~name:(if src = "left" then "entry" else "prot")
        (Schema.of_names
           [ key_attr; "accession"; "name"; "organism"; "descr"; "gene"; "keywords" ])
    in
    List.iteri
      (fun i (acc, name, organism, descr) ->
        Relation.insert rel
          (Array.append
             [| Value.Int (i + 1) |]
             (Array.map Value.text
                [| acc; name; organism; descr; name ^ "g";
                   (if name = "KINA1" then "kinase; DNA repair" else "transport") |])))
      rows;
    cat
  in
  let kinase = "alpha kinase protein involved in DNA repair pathways and signaling" in
  let left =
    source "left" "entry_id"
      [ ("LA001", "KINA1", "Homo sapiens", kinase);
        ("LA002", "TRPB22", "Homo sapiens", "beta transporter protein briefly");
        ("LA003", "RCPC333", "Danio rerio",
         "gamma receptor protein binding extracellular calcium ligands here") ]
  in
  let dbxref =
    Catalog.create_relation left ~name:"dbxref"
      (Schema.of_names [ "dbxref_id"; "entry_id"; "accession" ])
  in
  List.iteri
    (fun i (entry, target) ->
      Relation.insert dbxref [| Value.Int (i + 1); Value.Int entry; Value.text target |])
    [ (1, "QC552"); (2, "RB901"); (3, "TX347"); (3, "QC552") ];
  let right =
    source "right" "prot_id"
      [ ("RB901", "KINA1", "Homo sapiens", kinase);
        ("QC552", "XYZ", "Rattus norvegicus", "a transporter of things");
        ("TX347", "QQQQQQ", "Gallus gallus", "some unrelated receptor of ligand sets") ]
  in
  [ left; right ]

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
        check Alcotest.bool "nonempty" true (Warehouse.links w <> []));
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
        let d = Warehouse.duplicates w in
        check Alcotest.bool "clusters" true (d.clusters <> []);
        check Alcotest.bool "candidates" true (d.candidates_checked > 0));
    Alcotest.test_case "dups explanation ends in the link's confidence" `Quick
      (fun () ->
        let w = Lazy.force warehouse in
        let d = Warehouse.duplicates w in
        let explained = Warehouse.explain_duplicates w in
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
    Alcotest.test_case "conflicts leave out cross-reference attributes" `Quick
      (fun () ->
        let eng = Engine.integrate (xref_duplicate_sources ()) in
        check Alcotest.bool "dbxref.accession is a cross-reference" true
          (List.exists
             (fun (c : Aladin_links.Xref_disc.correspondence) ->
               (c.src_source, c.src_relation, c.src_attribute)
               = ("left", "dbxref", "accession"))
             (Warehouse.correspondences (Engine.warehouse eng)));
        List.iter
          (fun (source, accession, other) ->
            match Engine.browse eng ~source accession with
            | None -> Alcotest.fail ("no view of " ^ accession)
            | Some v ->
                check
                  Alcotest.(list string)
                  (accession ^ " duplicates") [ other ]
                  (List.map
                     (fun (o, _) -> Aladin_links.Objref.to_string o)
                     v.duplicates);
                (* only the accessions disagree; LA001's cross-reference
                   to QC552 says nothing about RB901 *)
                check
                  Alcotest.(list (pair string string))
                  (accession ^ " conflicts")
                  [ ("entry.accession", "prot.accession") ]
                  (List.map
                     (fun (c : Aladin_dup.Conflict.t) -> (c.attr_a, c.attr_b))
                     v.conflicts))
          [ ("left", "LA001", "right:RB901"); ("right", "RB901", "left:LA001") ]);
    Alcotest.test_case "repository populated" `Quick (fun () ->
        let w = Lazy.force warehouse in
        check Alcotest.int "sources" 8 (List.length (Warehouse.sources w));
        check Alcotest.bool "correspondences" true
          (Warehouse.correspondences w <> []);
        (* the reports and the provenance come back from a store *)
        let dir = Tmp.path "repo" in
        match Warehouse.save_dir w dir with
        | Error msg -> Alcotest.fail ("save_dir: " ^ msg)
        | Ok () ->
            let w2, _ = Warehouse.load_dir dir in
            check Alcotest.int "reports" 8
              (List.length (Warehouse.run_reports w2));
            check Alcotest.bool "reports reloaded" true
              (Warehouse.run_reports w2 = Warehouse.run_reports w);
            check Alcotest.bool "provenance" true (provenance w <> None);
            check
              Alcotest.(option string)
              "provenance reloaded" (provenance w) (provenance w2));
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
              (run_report w (Catalog.name first) <> None)
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
        (* the delta pass, run once per added source, against batch
           discovery over every source at once *)
        let inc = Lazy.force warehouse in
        let full = Aladin_links.Seq_links.discover (Warehouse.profiles inc) in
        let seq_keys links =
          links
          |> List.filter (fun (l : Aladin_links.Link.t) ->
                 l.kind = Aladin_links.Link.Seq_similarity)
          |> List.map (fun (l : Aladin_links.Link.t) ->
                 Aladin_eval.Metrics.pair_key
                   (Aladin_links.Objref.to_string l.src)
                   (Aladin_links.Objref.to_string l.dst))
          |> List.sort_uniq String.compare
        in
        check Alcotest.bool "some seq links" true (seq_keys full.links <> []);
        check Alcotest.(list string) "identical seq links" (seq_keys full.links)
          (seq_keys (Warehouse.links inc)));
  ]

(* The link-discovery settings ([Linker.params]) through the warehouse,
   whose delta pipeline is the only link orchestrator: the defaults find
   every kind the mini-sources carry, and a disabled pass leaves no links
   of its kinds and is reported as disabled. *)
let linker_tests =
  [
    Alcotest.test_case "all kinds discovered" `Quick (fun () ->
        let w =
          Warehouse.integrate [ T_linkdisc.source_a (); T_linkdisc.source_b () ]
        in
        let kinds =
          List.map fst (Aladin_links.Linker.count_by_kind (Warehouse.links w))
        in
        check Alcotest.bool "xref" true (List.mem Aladin_links.Link.Xref kinds);
        check Alcotest.bool "seq" true
          (List.mem Aladin_links.Link.Seq_similarity kinds));
    Alcotest.test_case "disable flags" `Quick (fun () ->
        let config =
          { Config.default with
            linker =
              { Aladin_links.Linker.default_params with enable_seq = false;
                enable_text = false; enable_onto = false } }
        in
        let w =
          Warehouse.integrate ~config
            [ T_linkdisc.source_a (); T_linkdisc.source_b () ]
        in
        let kinds =
          List.map fst (Aladin_links.Linker.count_by_kind (Warehouse.links w))
        in
        check Alcotest.bool "xref still found" true
          (List.mem Aladin_links.Link.Xref kinds);
        List.iter
          (fun k ->
            check Alcotest.bool (Aladin_links.Link.kind_name k) false
              (List.mem k kinds))
          Aladin_links.Link.
            [ Seq_similarity; Text_similarity; Shared_term; Entity_mention ];
        List.iter
          (fun source ->
            let report = Option.get (run_report w source) in
            List.iter
              (fun pass ->
                match Warehouse.Run_report.find report pass with
                | Some { outcome = Skipped Disabled; _ } -> ()
                | Some _ | None ->
                    Alcotest.fail (source ^ ": " ^ pass ^ " not disabled"))
              [ "seq pass"; "text pass"; "onto pass" ])
          (Warehouse.sources w));
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
        let eng = Lazy.force engine in
        let r = query_exn eng "SELECT accession FROM uniprot.entry LIMIT 5" in
        check Alcotest.int "five" 5 (Relation.cardinality r));
    Alcotest.test_case "engine query returns SQL errors" `Quick (fun () ->
        let eng = Lazy.force engine in
        let error sql =
          match Engine.query eng sql with
          | Ok _ -> Alcotest.fail ("no error for " ^ sql)
          | Error msg -> msg
        in
        check Alcotest.string "lexer"
          "lex error: unterminated string literal"
          (error "SELECT accession FROM uniprot.entry WHERE accession = 'x");
        check Alcotest.string "lexer, stray character"
          "lex error: unexpected character '?'"
          (error "SELECT ? FROM uniprot.entry");
        check Alcotest.bool "parser" true
          (String.starts_with ~prefix:"parse error: " (error "SELEC accession")));
    Alcotest.test_case "sql join across relations" `Quick (fun () ->
        let eng = Lazy.force engine in
        let r =
          query_exn eng
            "SELECT accession, seq_text FROM uniprot.entry JOIN \
             uniprot.sequence_data ON uniprot.entry.entry_id = \
             uniprot.sequence_data.entry_id LIMIT 3"
        in
        check Alcotest.bool "rows" true (Relation.cardinality r > 0));
    Alcotest.test_case "search over warehouse" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let s = Aladin_access.Search.build (Warehouse.profiles w) in
        check Alcotest.bool "objects indexed" true
          (List.length
             (List.filter
                (fun (o : Aladin_links.Objref.t) ->
                  Aladin_access.Search.resolve s o.accession <> None)
                (Engine.objects (Lazy.force engine)))
          > 50));
    Alcotest.test_case "browser views an object" `Quick (fun () ->
        let eng = Lazy.force engine in
        match Engine.objects eng with
        | obj :: _ -> check Alcotest.bool "view" true (Engine.view eng obj <> None)
        | [] -> Alcotest.fail "no objects");
    Alcotest.test_case "path index built" `Quick (fun () ->
        let eng = Lazy.force engine in
        match Engine.links eng with
        | (l : Aladin_links.Link.t) :: _ ->
            check Alcotest.bool "linked pair related" true
              (Aladin_access.Path_rank.relatedness (Engine.link_index eng) l.src
                 l.dst
              > 0.)
        | [] -> Alcotest.fail "no links");
    Alcotest.test_case "sql over a shredded XML source" `Quick (fun () ->
        let eng = Lazy.force engine in
        let r =
          query_exn eng
            "SELECT COUNT(*) FROM bind.partner JOIN bind.interaction ON \
             bind.partner.parent_id = bind.interaction.interaction_id"
        in
        match (Relation.row r 0).(0) with
        | Value.Int n -> check Alcotest.bool "partners joined" true (n > 0)
        | _ -> Alcotest.fail "not an int");
    Alcotest.test_case "aggregate over warehouse" `Quick (fun () ->
        let eng = Lazy.force engine in
        let r =
          query_exn eng
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
        let path = Tmp.file ".fasta" in
        let oc = open_out path in
        output_string oc ">Q1 test\nACGTACGT\n";
        close_out oc;
        let im =
          match Aladin_system.import_file path with
          | Ok im -> im
          | Error e -> Alcotest.fail (Aladin_system.Import_error.to_string e)
        in
        Sys.remove path;
        check Alcotest.bool "entry" true (Catalog.find im.catalog "entry" <> None);
        check Alcotest.int "no record errors" 0 (List.length im.record_errors));
    Alcotest.test_case "integrate_paths" `Quick (fun () ->
        let path = Tmp.file ".fasta" in
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

let save_dir_exn w dir =
  match Warehouse.save_dir w dir with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("save_dir: " ^ msg)

let feedback_tests =
  [
    Alcotest.test_case "engine reject_link keeps search and drops the link"
      `Quick (fun () ->
        let eng = Engine.create (Warehouse.integrate (Lazy.force small_corpus).catalogs) in
        let queries = [ "kinase"; "protein"; "binding domain"; "P" ] in
        let hits () = List.map (fun q -> Engine.search eng q) queries in
        let before = hits () in
        let in_view (l : Aladin_links.Link.t) o =
          match Engine.view eng o with
          | Some v -> List.mem l v.linked
          | None -> Alcotest.fail "an end of the link has no view"
        in
        match Engine.links ~kind:"xref" eng with
        | [] -> Alcotest.fail "no xref link"
        | l :: _ ->
            check Alcotest.bool "in both ends' views before" true
              (in_view l l.src && in_view l l.dst);
            Engine.reject_link eng l;
            check Alcotest.bool "search hits unchanged" true (hits () = before);
            check Alcotest.bool "gone from both ends' views" false
              (in_view l l.src || in_view l l.dst);
            (* a duplicate link with conflicts: they leave both ends'
               views, and no other view changes a byte *)
            let render o =
              Option.map Aladin_access.Browser.render (Engine.view eng o)
            in
            let pair_conflicts (d : Aladin_links.Link.t) o =
              match Engine.view eng o with
              | None -> Alcotest.fail "an end of the duplicate link has no view"
              | Some v ->
                  List.filter
                    (fun (c : Aladin_dup.Conflict.t) ->
                      let ends = [ c.obj_a; c.obj_b ] in
                      List.mem d.src ends && List.mem d.dst ends)
                    v.conflicts
            in
            let d =
              match
                List.find_opt
                  (fun (d : Aladin_links.Link.t) ->
                    (not (Aladin_links.Objref.equal d.src d.dst))
                    && pair_conflicts d d.src <> [])
                  (Engine.links ~kind:"duplicate" eng)
              with
              | Some d -> d
              | None -> Alcotest.fail "no duplicate link with conflicts"
            in
            let others =
              List.filter
                (fun o ->
                  not
                    (Aladin_links.Objref.equal o d.src
                    || Aladin_links.Objref.equal o d.dst))
                (Engine.objects eng)
            in
            let before = List.map render others in
            check Alcotest.bool "conflicts at the other end before" true
              (pair_conflicts d d.dst <> []);
            Engine.reject_link eng d;
            check Alcotest.int "conflicts gone from the source end" 0
              (List.length (pair_conflicts d d.src));
            check Alcotest.int "conflicts gone from the target end" 0
              (List.length (pair_conflicts d d.dst));
            check Alcotest.bool "every other view byte-identical" true
              (List.map render others = before);
            (* and the kept structures are what a full build makes *)
            let fresh = Engine.create (Engine.warehouse eng) in
            List.iter
              (fun o ->
                check
                  Alcotest.(option string)
                  (Aladin_links.Objref.to_string o)
                  (Option.map Aladin_access.Browser.render (Engine.view fresh o))
                  (render o))
              (Engine.objects eng));
    Alcotest.test_case "reject_link filters" `Quick (fun () ->
        let fb = Feedback.create () in
        let l =
          Aladin_links.Link.make
            ~src:(Aladin_links.Objref.make ~source:"a" ~relation:"r" ~accession:"A1")
            ~dst:(Aladin_links.Objref.make ~source:"b" ~relation:"r" ~accession:"B1")
            ~kind:Aladin_links.Link.Duplicate ~confidence:0.8 ~evidence:"t"
        in
        Feedback.reject_link fb l;
        let rejected l = Feedback.filter_links fb [ l ] = [] in
        check Alcotest.bool "rejected" true (rejected l);
        (* symmetric kinds match in either direction *)
        let flipped = { l with src = l.dst; dst = l.src } in
        check Alcotest.bool "flipped rejected" true (rejected flipped);
        check Alcotest.int "filtered" 0 (List.length (Feedback.filter_links fb [ l ])));
    Alcotest.test_case "reject_fk filters" `Quick (fun () ->
        let fk =
          { Aladin_discovery.Inclusion.src_relation = "comment";
            src_attribute = "entry_id"; dst_relation = "entry";
            dst_attribute = "entry_id";
            cardinality = Aladin_discovery.Inclusion.One_to_many;
            origin = `Inferred }
        in
        (* a stored fk rejection, as feedback.txt records it *)
        let fb, dropped =
          Feedback.load_salvaging
            (Feedback.save (Feedback.create ()) ^ fk_rejection ~source:"mini" fk)
        in
        check Alcotest.int "nothing dropped" 0 dropped;
        check Alcotest.int "filtered" 0
          (List.length (Feedback.filter_fks fb ~source:"mini" [ fk ]));
        check Alcotest.int "other source fine" 1
          (List.length (Feedback.filter_fks fb ~source:"other" [ fk ])));
    Alcotest.test_case "save/load roundtrip" `Quick (fun () ->
        let fb = Feedback.create () in
        let l =
          Aladin_links.Link.make
            ~src:(Aladin_links.Objref.make ~source:"a" ~relation:"r" ~accession:"A1")
            ~dst:(Aladin_links.Objref.make ~source:"b" ~relation:"r" ~accession:"B1")
            ~kind:Aladin_links.Link.Xref ~confidence:0.8 ~evidence:"t"
        in
        Feedback.reject_link fb l;
        let fb2, dropped = Feedback.load_salvaging (Feedback.save fb) in
        check Alcotest.int "nothing dropped" 0 dropped;
        check Alcotest.bool "persisted" true (Feedback.filter_links fb2 [ l ] = []);
        check Alcotest.string "counts" (Feedback.save fb) (Feedback.save fb2));
    Alcotest.test_case "load rejects garbage" `Quick (fun () ->
        let fb, dropped = Feedback.load_salvaging "nope" in
        check Alcotest.bool "dropped" true (dropped > 0);
        check Alcotest.string "nothing rejected"
          (Feedback.save (Feedback.create ())) (Feedback.save fb));
    Alcotest.test_case "a rejection hides only its own link" `Quick (fun () ->
        (* four xref links that render alike as source:accession: two
           differ only in the source relation, two in where the colon
           splits source from accession *)
        let o source relation accession =
          Aladin_links.Objref.make ~source ~relation ~accession
        in
        let dst = o "b" "entry" "BX0001" in
        let xref src =
          Aladin_links.Link.make ~src ~dst ~kind:Aladin_links.Link.Xref
            ~confidence:0.9 ~evidence:"t"
        in
        let r1 = xref (o "a" "r1" "AX0001") and r2 = xref (o "a" "r2" "AX0001")
        and c1 = xref (o "x:AB" "entry" "CD0001")
        and c2 = xref (o "x" "entry" "AB:CD0001") in
        let key (l : Aladin_links.Link.t) =
          Printf.sprintf "%s|%s|%s>%s|%s|%s" l.src.source l.src.relation
            l.src.accession l.dst.source l.dst.relation l.dst.accession
        in
        let held w l = List.exists (fun l' -> key l' = key l) (Warehouse.links w) in
        (* a store of the small corpus whose pairs.txt holds the four *)
        let dir = Tmp.path "fb" in
        save_dir_exn (Lazy.force warehouse) dir;
        let ps = Pair_store.create () in
        List.iter
          (fun (l : Aladin_links.Link.t) ->
            let a, b = Pair_store.canon l.src.source l.dst.source in
            let e = Option.value (Pair_store.find ps a b) ~default:Pair_store.empty_entry in
            Pair_store.set ps a b
              { e with xref_links = Aladin_links.Link.dedup (l :: e.xref_links) })
          [ r1; r2; c1; c2 ];
        (match Aladin_store.Snapshot.load dir with
        | Error msg -> Alcotest.fail msg
        | Ok (members, _) ->
            let members =
              List.map
                (fun (m : Aladin_store.Snapshot.member) ->
                  if m.path = "pairs.txt" then { m with content = Pair_store.save ps }
                  else m)
                members
            in
            ignore (Result.get_ok (Aladin_store.Snapshot.save dir members)));
        let w, _ = Warehouse.load_dir dir in
        check Alcotest.bool "all four held" true (List.for_all (held w) [ r1; r2; c1; c2 ]);
        Warehouse.reject_link w r1;
        Warehouse.reject_link w c1;
        let kept w =
          List.map (fun l -> (key l, held w l)) [ r1; r2; c1; c2 ]
        in
        let expected =
          [ (key r1, false); (key r2, true); (key c1, false); (key c2, true) ]
        in
        check Alcotest.(list (pair string bool)) "the other two stay" expected (kept w);
        let dir2 = Tmp.path "fb2" in
        save_dir_exn w dir2;
        let w2, _ = Warehouse.load_dir dir2 in
        check Alcotest.(list (pair string bool)) "and stay after save and load"
          expected (kept w2));
    Alcotest.test_case "a 3-field rejection still hides what it hid" `Quick
      (fun () ->
        (* feedback.txt as written before rejections carried relations:
           the endpoints rendered as source:accession *)
        let doc =
          Feedback.save (Feedback.create ())
          ^ Aladin_store.Serial.record [ "link"; "a:AX0001"; "b:BX0001"; "xref" ]
          ^ "\n"
        in
        let fb, dropped = Feedback.load_salvaging doc in
        check Alcotest.int "nothing dropped" 0 dropped;
        let o source relation accession =
          Aladin_links.Objref.make ~source ~relation ~accession
        in
        let xref src dst =
          Aladin_links.Link.make ~src ~dst ~kind:Aladin_links.Link.Xref
            ~confidence:0.9 ~evidence:"t"
        in
        let dst = o "b" "entry" "BX0001" in
        let alike = [ xref (o "a" "r1" "AX0001") dst; xref (o "a" "r2" "AX0001") dst ] in
        let other = xref (o "a" "r1" "AX0002") dst in
        check Alcotest.int "both renderings hidden, the other kept" 1
          (List.length (Feedback.filter_links fb (other :: alike)));
        check Alcotest.string "written back as read" doc (Feedback.save fb));
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
                    (fun l2 -> same_endpoints l l2)
                    (Warehouse.links w))));
  ]

let persistence_tests =
  [
    Alcotest.test_case "save/load roundtrip (trusted)" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Tmp.path "wh" in
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
        let eng = Engine.create w2 in
        match Engine.objects eng with
        | obj :: _ ->
            check Alcotest.bool "view works" true (Engine.view eng obj <> None)
        | [] -> Alcotest.fail "no objects after load");
    Alcotest.test_case "load with reanalyze rediscovers" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Tmp.path "wh2" in
        save_dir_exn w dir;
        let w2, _report = Warehouse.load_dir ~reanalyze:true dir in
        (* re-discovery on the round-tripped data finds the same links *)
        check Alcotest.int "same link count"
          (List.length (Warehouse.links w))
          (List.length (Warehouse.links w2)));
    Alcotest.test_case "sql works after load" `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Tmp.path "wh3" in
        save_dir_exn w dir;
        let w2, _report = Warehouse.load_dir dir in
        let n w =
          Relation.cardinality
            (query_exn (Engine.create w) "SELECT * FROM uniprot.entry")
        in
        check Alcotest.int "same rows" (n w) (n w2));
    Alcotest.test_case "save refuses to clobber a non-store directory" `Quick
      (fun () ->
        let w = Lazy.force warehouse in
        let dir = Tmp.path "wh4" in
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
        let dir = Tmp.path "rl" in
        save_dir_exn w dir;
        let w2, _ = Warehouse.load_dir dir in
        check Alcotest.string "rejection loaded"
          (Feedback.save (Warehouse.feedback w))
          (Feedback.save (Warehouse.feedback w2));
        (match Warehouse.catalog w2 l.src.Aladin_links.Objref.source with
        | Some cat -> ignore (Warehouse.add_source w2 cat)
        | None -> Alcotest.fail "source lost");
        check Alcotest.bool "still gone" false
          (List.exists
             (fun l2 -> same_endpoints l l2)
             (Warehouse.links w2)));
    Alcotest.test_case "save/load/save keeps the rejection" `Quick (fun () ->
        let w, _ = rejected_link () in
        let dir = Tmp.path "rl1" and dir2 = Tmp.path "rl2" in
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
        let fk =
          match Warehouse.profile w "uniprot" with
          | Some { fks = fk :: _; _ } -> fk
          | Some _ | None -> Alcotest.fail "uniprot has no fks"
        in
        let shown = Format.asprintf "%a" Aladin_discovery.Inclusion.pp_fk fk in
        let before = List.filter (( <> ) shown) (fks w "uniprot") in
        let dir = Tmp.path "rf" in
        save_dir_exn w dir;
        (* commit the store again with the fk rejected in feedback.txt *)
        (match Aladin_store.Snapshot.load dir with
        | Ok (members, _) ->
            let members =
              List.map
                (fun (m : Aladin_store.Snapshot.member) ->
                  if m.path = "feedback.txt" then
                    { m with content = m.content ^ fk_rejection ~source:"uniprot" fk }
                  else m)
                members
            in
            (match Aladin_store.Snapshot.save dir members with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
        | Error e -> Alcotest.fail e);
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
        let dir = Tmp.path "mpl" in
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
        let eng = Lazy.force engine in
        match Engine.links eng with
        | (l : Aladin_links.Link.t) :: _ ->
            let hits =
              Engine.traverse eng ~start:[ l.src ]
                ~steps:[ Aladin_access.Link_query.step () ]
            in
            check Alcotest.bool "reaches dst" true
              (List.exists
                 (fun (h : Aladin_access.Link_query.hit) ->
                   Aladin_links.Objref.equal h.endpoint l.dst)
                 hits)
        | [] -> Alcotest.fail "no links");
  ]

(* Config.of_file over a file holding [doc] *)
let of_string doc =
  let path = Tmp.file ".conf" in
  let oc = open_out_bin path in
  output_string oc doc;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Config.of_file path)

let config_ok doc =
  match of_string doc with
  | Ok cfg -> cfg
  | Error msg -> Alcotest.fail ("unexpected config error: " ^ msg)

let config_seed = 20261019

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
        match of_string "nonsense.key = 1" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "no error");
    Alcotest.test_case "bad value reported with line number" `Quick (fun () ->
        match of_string "domains = 2\naccession.min_length = soon" with
        | Error msg ->
            check Alcotest.bool "mentions line 2" true
              (Aladin_text.Strdist.contains ~needle:":2: " msg)
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
    Alcotest.test_case "budget.import is an unknown key" `Quick (fun () ->
        match of_string "budget.import = 2" with
        | Error msg ->
            check Alcotest.bool "unknown key" true
              (Aladin_text.Strdist.contains ~needle:"unknown key" msg)
        | Ok _ -> Alcotest.fail "no error");
    Alcotest.test_case "bad budget rejected" `Quick (fun () ->
        match of_string "budget.links = fast" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "no error");
    Alcotest.test_case "default rendering is pinned" `Quick (fun () ->
        (* a journal's config digest hashes this rendering, so a journal
           begun under another one is refused on resume *)
        check Alcotest.string "rendering"
          (String.concat ""
             (List.map
                (fun l -> l ^ "\n")
                [ "accession.min_length = 4";
                  "accession.max_length_spread = 0.2";
                  "inclusion.min_containment = 1";
                  "inclusion.require_name_affinity = true";
                  "links.seq.min_normalized = 0.5";
                  "links.seq.min_seq_len = 20";
                  "links.text.min_cosine = 0.5";
                  "links.xref.min_matches = 2";
                  "links.enable_seq = true";
                  "links.enable_text = true";
                  "links.enable_onto = true";
                  "dup.min_similarity = 0.78";
                  "dup.all_pairs = false";
                  "max_path_len = 6";
                  "change_threshold = 0.1";
                  "domains = 0";
                  "budget.primary = none";
                  "budget.secondary = none";
                  "budget.links = none";
                  "budget.links.xref = none";
                  "budget.links.seq = none";
                  "budget.links.text = none";
                  "budget.links.onto = none";
                  "budget.dups = none" ]))
          (Config.to_string Config.default));
    (* every rendered key parses back to a config that renders the same:
       a key rendered but not parsed (or parsed into another field)
       fails here *)
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| config_seed |])
      (QCheck.Test.make ~name:"to_string is stable through of_string"
         ~count:300
         (QCheck.make
            ~print:Config.to_string
            (fun st ->
              let open QCheck.Gen in
              let i () = int st and f () = float st and b () = bool st in
              let budget () = opt float st in
              let d = Config.default in
              { Config.accession =
                  { min_length = i (); max_length_spread = f () };
                inclusion =
                  { min_containment = f ();
                    require_name_affinity_for_pk_pk = b () };
                linker =
                  { seq = { min_normalized = f (); min_seq_len = i () };
                    text = { min_cosine = f () };
                    xref = { d.linker.xref with min_matches = i () };
                    enable_seq = b (); enable_text = b ();
                    enable_onto = b () };
                dup = { min_similarity = f (); all_pairs = b () };
                max_path_len = i ();
                change_threshold = f ();
                domains = i ();
                budgets =
                  { Config.primary = budget (); secondary = budget ();
                    links = budget (); xref_pass = budget ();
                    seq_pass = budget (); text_pass = budget ();
                    onto_pass = budget (); dups = budget () } }))
         (fun cfg ->
           let s = Config.to_string cfg in
           match of_string s with
           | Ok cfg2 -> Config.to_string cfg2 = s
           | Error _ -> false));
  ]

(* one line through the shell's read-eval-print loop: the output between
   its prompts, or [`Quit] when it printed no second prompt *)
let shell_execute sh line =
  let inp = Tmp.file ".in" and outp = Tmp.file ".out" in
  let oc = open_out_bin inp in
  output_string oc (line ^ "\n");
  close_out oc;
  let ic = open_in_bin inp and oc = open_out_bin outp in
  Shell.repl sh ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in_bin outp in
  let o = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove inp;
  Sys.remove outp;
  let prompt = String.length "aladin> " in
  let body = String.sub o prompt (String.length o - prompt) in
  if body = "" then `Quit else `Output (String.sub body 0 (String.length body - prompt))

let shell_tests =
  let shell = lazy (Shell.create (Lazy.force engine)) in
  let out line =
    match shell_execute (Lazy.force shell) line with
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
        (match shell_execute sh ("view " ^ obj.source ^ " " ^ obj.accession) with
        | `Output s ->
            check Alcotest.bool "shows accession" true
              (contains obj.accession s)
        | `Quit -> Alcotest.fail "quit");
        match shell_execute sh "follow 0" with
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
        match shell_execute (Lazy.force shell) "quit" with
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
        let dir = Tmp.path "delta" in
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
        Tmp.rm_rf dir);
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

(* links rendered with every byte that matters, confidences exactly *)
let render_links links =
  List.map
    (fun (l : Aladin_links.Link.t) ->
      Printf.sprintf "%s|%s|%s|%s|%h|%s"
        (Aladin_links.Objref.to_string l.src)
        l.src.relation
        (Aladin_links.Objref.to_string l.dst)
        (Aladin_links.Link.kind_name l.kind)
        l.confidence l.evidence)
    links

let snapshot_members dir =
  match Aladin_store.Snapshot.load dir with
  | Ok (members, _) -> members
  | Error e -> Alcotest.fail e

(* --- the merged link view against [Link.dedup] of the concatenation ---

   [random_store_gen] fills a store as the pipeline does: 3-4 sources,
   self pairs included, every list holding only its own kinds between
   its own pair's sources (where [Pair_store.load] routes them), but
   handed to [set] unsorted and with duplicates. Small pools of
   relations, accessions, confidences and evidence make equal endpoints
   and tied confidences common. *)

let pair_store_seed = 20261019

module Lk = Aladin_links

let random_obj source =
  QCheck.Gen.(
    map2
      (fun relation accession -> Lk.Objref.make ~source ~relation ~accession)
      (oneofl [ "r"; "r"; "q" ])
      (oneofl [ "A1"; "A2"; "A3"; "B1"; "x\ty" ]))

let random_link kinds s1 s2 =
  QCheck.Gen.(
    map
      (fun ((o1, o2), kind, (c, evidence), flip) ->
        let src, dst = if flip then (o2, o1) else (o1, o2) in
        Lk.Link.make ~src ~dst ~kind ~confidence:(float_of_int c /. 4.)
          ~evidence)
      (quad
         (pair (random_obj s1) (random_obj s2))
         (oneofl kinds)
         (pair (int_range 1 4) (oneofl [ "e"; "f"; "e\\n" ]))
         bool))

(* a list with some of its links repeated *)
let random_links kinds s1 s2 =
  QCheck.Gen.(
    map2
      (fun ls again -> if again then ls @ List.filteri (fun i _ -> i mod 2 = 0) ls else ls)
      (list_size (int_range 0 8) (random_link kinds s1 s2))
      bool)

let random_corr s1 s2 =
  QCheck.Gen.(
    map2
      (fun (flip, attribute) m ->
        let a, b = if flip then (s2, s1) else (s1, s2) in
        { Lk.Xref_disc.src_source = a; src_relation = "r"; src_attribute = attribute;
          dst_source = b; dst_relation = "q"; dst_attribute = "acc"; matches = m;
          match_frac = float_of_int m /. 8.; encoded = m mod 2 = 0 })
      (pair bool (oneofl [ "x"; "y\tz" ]))
      (int_bound 8))

let random_entry a b =
  QCheck.Gen.(
    map
      (fun ((xref_links, correspondences), (seq_links, text_links), dup_links, dup_candidates) ->
        { Pair_store.xref_links; correspondences; seq_links; text_links;
          dup_links; dup_candidates })
      (quad
         (pair (random_links [ Lk.Link.Xref ] a b)
            (list_size (int_range 0 2) (random_corr a b)))
         (pair
            (random_links [ Lk.Link.Seq_similarity ] a b)
            (random_links [ Lk.Link.Text_similarity; Lk.Link.Entity_mention ] a b))
         (random_links [ Lk.Link.Duplicate ] a b)
         (int_bound 50)))

let random_store_gen =
  QCheck.Gen.(
    int_range 3 4 >>= fun n ->
    let sources = List.filteri (fun i _ -> i < n) [ "a"; "b"; "c"; "d" ] in
    let pairs =
      List.concat_map
        (fun a -> List.filter_map (fun b -> if a <= b then Some (a, b) else None) sources)
        sources
    in
    let entries =
      flatten_l
        (List.map
           (fun (a, b) ->
             map2 (fun keep e -> if keep then Some ((a, b), e) else None)
               (frequency [ (4, return true); (1, return false) ])
               (random_entry a b))
           pairs)
    in
    let onto =
      oneofl sources >>= fun a ->
      oneofl sources >>= fun b -> random_links [ Lk.Link.Shared_term ] a b
    in
    map3
      (fun entries onto seed ->
        let ps = Pair_store.create () in
        List.iter (fun ((a, b), e) -> Pair_store.set ps a b e) (List.filter_map Fun.id entries);
        Pair_store.set_onto ps onto;
        (ps, seed))
      entries onto int)

let every_list ps =
  Pair_store.onto ps
  :: List.concat_map
       (fun (_, (e : Pair_store.entry)) ->
         [ e.xref_links; e.seq_links; e.text_links; e.dup_links ])
       (Pair_store.pairs ps)

let reference_links ps = Lk.Link.dedup (List.concat (every_list ps))

(* [doc] with its plink lines permuted among themselves *)
let shuffle_plinks seed doc =
  let rng = Random.State.make [| seed |] in
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let at = List.filter (fun i -> String.starts_with ~prefix:"plink\t" lines.(i))
      (List.init (Array.length lines) Fun.id) in
  let shuffled =
    List.map (fun i -> (Random.State.bits rng, lines.(i))) at
    |> List.sort compare |> List.map snd
  in
  List.iter2 (fun i l -> lines.(i) <- l) at shuffled;
  String.concat "\n" (Array.to_list lines)

(* [Link.dedup] as it keyed links before: by each endpoint's
   [Objref.to_string], which leaves the relation out *)
let dedup_by_rendering links =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let l = Lk.Link.normalized l in
      let key =
        (Lk.Objref.to_string l.src, Lk.Objref.to_string l.dst, Lk.Link.kind_rank l.kind)
      in
      match Hashtbl.find_opt tbl key with
      | Some (e : Lk.Link.t)
        when l.confidence > e.confidence
             || (l.confidence = e.confidence && String.compare l.evidence e.evidence < 0) ->
          Hashtbl.replace tbl key l
      | Some _ -> ()
      | None -> Hashtbl.replace tbl key l)
    links;
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
  |> List.sort (fun (a : Lk.Link.t) (b : Lk.Link.t) ->
         compare
           ((a.src.source, a.src.relation, a.src.accession),
            (a.dst.source, a.dst.relation, a.dst.accession), Lk.Link.kind_rank a.kind)
           ((b.src.source, b.src.relation, b.src.accession),
            (b.dst.source, b.dst.relation, b.dst.accession), Lk.Link.kind_rank b.kind))

let merged_view_tests =
  let fixed test =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| pair_store_seed |]) test
  in
  let store_arb = QCheck.make ~print:(fun (ps, _) -> Pair_store.save ps) random_store_gen in
  [
    fixed
      (QCheck.Test.make ~name:"all_links equals Link.dedup of every list" ~count:300
         store_arb (fun (ps, _) ->
           render_links (Pair_store.all_links ps) = render_links (reference_links ps)));
    fixed
      (QCheck.Test.make ~name:"load of a save gives equal entries and links" ~count:300
         store_arb (fun (ps, _) ->
           let loaded, dropped = Pair_store.load (Pair_store.save ps) in
           dropped = 0
           && Pair_store.pairs loaded = Pair_store.pairs ps
           && Pair_store.onto loaded = Pair_store.onto ps
           && render_links (Pair_store.all_links loaded)
              = render_links (Pair_store.all_links ps)));
    fixed
      (QCheck.Test.make ~name:"a save with shuffled plink lines loads to the same links"
         ~count:300 store_arb (fun (ps, seed) ->
           let loaded, dropped = Pair_store.load (shuffle_plinks seed (Pair_store.save ps)) in
           dropped = 0
           && render_links (Pair_store.all_links loaded)
              = render_links (reference_links ps)));
    fixed
      (QCheck.Test.make ~name:"Link.union of sorted and unsorted lists equals dedup"
         ~count:500
         (QCheck.make
            QCheck.Gen.(
              list_size (int_range 0 6)
                (pair bool
                   (random_links
                      [ Lk.Link.Xref; Lk.Link.Seq_similarity; Lk.Link.Duplicate ]
                      "a" "b"))))
         (fun lists ->
           (* in-form lists share links, so ties cross lists *)
           let ls = List.map (fun (sorted, l) -> if sorted then Lk.Link.dedup l else l) lists in
           render_links (Lk.Link.union ls) = render_links (Lk.Link.dedup (List.concat ls))));
    fixed
      (QCheck.Test.make
         ~name:"Link.dedup keys as before when no two endpoints render alike"
         ~count:300
         (QCheck.make
            QCheck.Gen.(
              list_size (int_range 0 30)
                (oneofl [ "a"; "b"; "c" ] >>= fun s1 ->
                 oneofl [ "a"; "b"; "c" ] >>= fun s2 ->
                 map (fun (l : Lk.Link.t) ->
                     { l with src = { l.src with relation = "r" };
                              dst = { l.dst with relation = "r" } })
                   (random_link
                      [ Lk.Link.Xref; Lk.Link.Text_similarity; Lk.Link.Shared_term ]
                      s1 s2))))
         (fun links ->
           render_links (Lk.Link.dedup links) = render_links (dedup_by_rendering links)));
    Alcotest.test_case "links that render alike but differ in relation stay apart"
      `Quick (fun () ->
        let o source relation accession = Lk.Objref.make ~source ~relation ~accession in
        let xref src dst c =
          Lk.Link.make ~src ~dst ~kind:Lk.Link.Xref ~confidence:c ~evidence:"e"
        in
        (* two objects of source a share accession X under two relations;
           a:b's c and a's b:c render as the same "a:b:c" *)
        let by_relation = [ xref (o "a" "r" "X") (o "b" "r" "Y") 0.9;
                            xref (o "a" "q" "X") (o "b" "r" "Y") 0.8 ] in
        let by_colon = [ xref (o "a:b" "r" "c") (o "z" "r" "Y") 0.9;
                         xref (o "a" "r" "b:c") (o "z" "r" "Y") 0.8 ] in
        List.iter
          (fun (what, links) ->
            let (first : Lk.Link.t), (second : Lk.Link.t) =
              (List.hd links, List.nth links 1)
            in
            check Alcotest.string (what ^ ": same rendering")
              (Lk.Objref.to_string first.src) (Lk.Objref.to_string second.src);
            check Alcotest.int (what ^ ": dedup keeps both") 2
              (List.length (Lk.Link.dedup links));
            check Alcotest.(list string) (what ^ ": union agrees")
              (render_links (Lk.Link.dedup links))
              (render_links (Lk.Link.union [ [ first ]; [ second ] ]));
            let ps = Pair_store.create () in
            Pair_store.set ps first.src.source first.dst.source
              { Pair_store.empty_entry with xref_links = [ first ] };
            Pair_store.set ps second.src.source second.dst.source
              { Pair_store.empty_entry with xref_links = [ second ] };
            check Alcotest.(list string) (what ^ ": all_links agrees")
              (render_links (reference_links ps))
              (render_links (Pair_store.all_links ps)))
          [ ("relation", by_relation); ("colon", by_colon) ]);
  ]

let pair_store_tests =
  let module L = Aladin_links in
  [
    Alcotest.test_case "a pair of several thousand links re-saves identically"
      `Quick (fun () ->
        let obj s i =
          L.Objref.make ~source:s ~relation:"r"
            ~accession:(Printf.sprintf "%s%05d" s i)
        in
        let n = 4000 in
        let link kind i =
          L.Link.make ~src:(obj "a" i) ~dst:(obj "b" (i * 7 mod n)) ~kind
            ~confidence:(float_of_int i /. float_of_int n)
            ~evidence:(Printf.sprintf "e%d" i)
        in
        let entry =
          { Pair_store.xref_links = List.init n (link L.Link.Xref);
            correspondences =
              [ { L.Xref_disc.src_source = "a"; src_relation = "r";
                  src_attribute = "x"; dst_source = "b"; dst_relation = "r";
                  dst_attribute = "acc"; matches = n; match_frac = 0.75;
                  encoded = false } ];
            seq_links = List.init 1500 (link L.Link.Seq_similarity);
            text_links =
              List.init 1500 (fun i ->
                  link
                    (if i mod 3 = 0 then L.Link.Entity_mention
                     else L.Link.Text_similarity)
                    i);
            dup_links = List.init 700 (link L.Link.Duplicate);
            dup_candidates = 1234 }
        in
        let ps = Pair_store.create () in
        Pair_store.set ps "a" "b" entry;
        Pair_store.set_onto ps (List.init 300 (link L.Link.Shared_term));
        let doc = Pair_store.save ps in
        let loaded, dropped = Pair_store.load doc in
        check Alcotest.int "no line dropped" 0 dropped;
        check Alcotest.string "re-saved byte-identically" doc
          (Pair_store.save loaded);
        match Pair_store.find loaded "b" "a" with
        | None -> Alcotest.fail "pair lost"
        | Some e ->
            check Alcotest.(list string) "xref order kept"
              (render_links entry.xref_links) (render_links e.xref_links);
            check Alcotest.(list string) "text order kept"
              (render_links entry.text_links) (render_links e.text_links));
  ]

(* append a word to every third multi-word text value: the source's
   documents and term frequencies move, and so do its text links *)
let edit_text cat =
  let out = Catalog.create ~name:(Catalog.name cat) in
  List.iter
    (fun r ->
      let nr =
        Catalog.create_relation out ~name:(Relation.name r) (Relation.schema r)
      in
      Relation.iteri_rows
        (fun i row ->
          let row = Array.copy row in
          if i mod 3 = 0 then
            Array.iteri
              (fun ai v ->
                match Value.as_text v with
                | Some s when String.contains s ' ' ->
                    row.(ai) <- Value.text (s ^ " edited kinase")
                | Some _ | None -> ())
              row;
          Relation.insert nr row)
        r)
    (Catalog.relations cat);
  List.iter (Catalog.declare out) (Catalog.constraints cat);
  out

(* one link with every byte that matters, as [render_links] shows it *)
let link_testable =
  Alcotest.testable
    (fun ppf l -> Format.pp_print_string ppf (List.hd (render_links [ l ])))
    (fun a b -> render_links [ a ] = render_links [ b ])

(* [expected] and [actual] must be equal, and on a mismatch the first
   differing link is printed instead of two lists of thousands *)
let same_links what expected actual =
  let rec first i = function
    | e :: es, a :: rest when render_links [ e ] = render_links [ a ] ->
        first (i + 1) (es, rest)
    | e :: _, a :: _ -> (i, Some e, Some a)
    | e :: _, [] -> (i, Some e, None)
    | [], a :: _ -> (i, None, Some a)
    | [], [] -> (i, None, None)
  in
  let i, e, a = first 0 (expected, actual) in
  let what =
    if e = None && a = None then what
    else Printf.sprintf "%s: first differing link, at %d" what i
  in
  check (Alcotest.option link_testable) what e a

let same_duplicates what (d : Aladin_dup.Dup_detect.result)
    (d' : Aladin_dup.Dup_detect.result) =
  same_links (what ^ ": duplicate links") d.links d'.links;
  check Alcotest.(list (list string)) (what ^ ": clusters") d.clusters
    d'.clusters;
  check Alcotest.int (what ^ ": candidates checked") d.candidates_checked
    d'.candidates_checked

(* the clusters of the Duplicate links among [links]: a union-find over
   them, independent of [Dup_detect.result_of_links] *)
let clusters_of links =
  let uf = Aladin_dup.Union_find.create () in
  List.iter
    (fun (l : Aladin_links.Link.t) ->
      if l.kind = Aladin_links.Link.Duplicate then
        Aladin_dup.Union_find.union uf
          (Aladin_links.Objref.to_string l.src)
          (Aladin_links.Objref.to_string l.dst))
    links;
  Aladin_dup.Union_find.clusters uf

(* the promises every state of the warehouse keeps, checked on one fresh
   save: the link view is the feedback filter of the saved pairs.txt's
   merge, the duplicate clusters are those of the view's Duplicate
   links, and loading the save gives back the same links,
   correspondences and duplicates *)
let check_promises stage w =
  let dir = Tmp.path "promises" in
  save_dir_exn w dir;
  let merged =
    match Aladin_store.Snapshot.find (snapshot_members dir) "pairs.txt" with
    | None -> Alcotest.fail "no pairs.txt"
    | Some doc -> Pair_store.all_links (fst (Pair_store.load doc))
  in
  let w2, report = Warehouse.load_dir dir in
  Tmp.rm_rf dir;
  same_links (stage ^ ": links")
    (Feedback.filter_links (Warehouse.feedback w) merged)
    (Warehouse.links w);
  check Alcotest.(list (list string)) (stage ^ ": duplicate clusters")
    (clusters_of (Warehouse.links w))
    (Warehouse.duplicates w).clusters;
  check Alcotest.bool (stage ^ ": clean reload") true
    (Aladin_store.Load_report.is_clean report);
  same_links (stage ^ ": reloaded links") (Warehouse.links w)
    (Warehouse.links w2);
  check Alcotest.bool (stage ^ ": reloaded correspondences") true
    (Warehouse.correspondences w = Warehouse.correspondences w2);
  same_duplicates (stage ^ ": reloaded") (Warehouse.duplicates w)
    (Warehouse.duplicates w2)

(* one step of the randomized view test: reject a link of the view (a
   Duplicate one when the flag holds and there is one), save and reload,
   add the held-out source, or update uniprot with [edit_text] *)
type view_op = Reject of int * bool | Reload | Add_held_out | Update_text

let view_op_name = function
  | Reject (i, dup) ->
      Printf.sprintf "reject %d%s" i (if dup then " dup" else "")
  | Reload -> "reload"
  | Add_held_out -> "add held-out"
  | Update_text -> "update uniprot"

let view_ops_gen =
  QCheck.Gen.(
    list_size (int_range 3 6)
      (frequency
         [ (3, map2 (fun i dup -> Reject (i, dup)) nat bool);
           (1, return Reload);
           (1, return Add_held_out);
           (1, return Update_text) ]))

let view_ops_seed = 20261018

(* After each mutation, the warehouse's links are the merged pair-store
   view (read back from the saved pairs.txt) less the rejected links,
   and its duplicates are a kind filter of those links. *)
let view_tests =
  let module L = Aladin_links in
  let merged_view w =
    let dir = Tmp.path "views" in
    save_dir_exn w dir;
    let members = snapshot_members dir in
    Tmp.rm_rf dir;
    match Aladin_store.Snapshot.find members "pairs.txt" with
    | None -> Alcotest.fail "no pairs.txt"
    | Some doc ->
        let ps, dropped = Pair_store.load doc in
        check Alcotest.int "pairs.txt loads whole" 0 dropped;
        Pair_store.all_links ps
  in
  let check_views stage w =
    let merged = merged_view w in
    let view = Feedback.filter_links (Warehouse.feedback w) merged in
    let same what expected actual =
      check Alcotest.(list string) (stage ^ ": " ^ what) (render_links expected)
        (render_links actual)
    in
    same "duplicates"
      (List.filter (fun (l : L.Link.t) -> l.kind = L.Link.Duplicate) view)
      (Warehouse.duplicates w).links;
    same "warehouse links" view (Warehouse.links w);
    merged
  in
  [
    Alcotest.test_case "report and duplicate views filter the merged store"
      `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let rev = List.rev c.catalogs in
        let w = Warehouse.integrate (List.rev (List.tl rev)) in
        ignore (Warehouse.add_source w (List.hd rev));
        let added = check_views "add" w in
        let cat =
          match Warehouse.catalog w "uniprot" with
          | Some cat -> cat
          | None -> Alcotest.fail "no uniprot"
        in
        let edited = edit_text cat in
        (match
           (Warehouse.update_source w edited
              ~changed_rows:(Catalog.total_rows edited)).outcome
         with
        | `Reanalyzed _ -> ()
        | `Deferred -> Alcotest.fail "full-source change deferred");
        let updated = check_views "update" w in
        let text ls =
          List.filter (fun (l : L.Link.t) -> l.kind = L.Link.Text_similarity) ls
        in
        check Alcotest.bool "the edit moved a text link" true
          (render_links (text added) <> render_links (text updated));
        (match text (Warehouse.links w) with
        | l :: _ -> Warehouse.reject_link w l
        | [] -> Alcotest.fail "no text link to reject");
        let rejected = check_views "reject" w in
        check Alcotest.int "one link filtered"
          (List.length rejected - 1)
          (List.length (Warehouse.links w)));
    Alcotest.test_case
      "load_dir keeps one copy of each link an older metadata.txt carries"
      `Quick (fun () ->
        let w = Lazy.force warehouse in
        let dir = Tmp.path "oldmeta" in
        save_dir_exn w dir;
        (* the link and corr records metadata.txt held before the pair
           store became the only copy, with the first link repeated *)
        let link_record (l : L.Link.t) =
          Aladin_store.Serial.record
            [ "link"; l.src.source; l.src.relation; l.src.accession;
              l.dst.source; l.dst.relation; l.dst.accession;
              L.Link.kind_name l.kind;
              Aladin_store.Serial.float_to_string l.confidence; l.evidence ]
        in
        let corr_record (c : L.Xref_disc.correspondence) =
          Aladin_store.Serial.record
            [ "corr"; c.src_source; c.src_relation; c.src_attribute;
              c.dst_source; c.dst_relation; c.dst_attribute;
              string_of_int c.matches;
              Aladin_store.Serial.float_to_string c.match_frac;
              string_of_bool c.encoded ]
        in
        let older_records =
          match Warehouse.links w with
          | first :: _ as links ->
              List.map link_record (first :: links)
              @ List.map corr_record (Warehouse.correspondences w)
          | [] -> Alcotest.fail "no links"
        in
        (* where they were written: after the sources, before the run
           reports *)
        let with_older doc =
          let rec go = function
            | line :: rest when String.starts_with ~prefix:"runreport\t" line ->
                older_records @ (line :: rest)
            | line :: rest -> line :: go rest
            | [] -> older_records
          in
          String.concat "\n" (go (String.split_on_char '\n' doc))
        in
        let members =
          List.map
            (fun (m : Aladin_store.Snapshot.member) ->
              if m.path = "metadata.txt" then { m with content = with_older m.content }
              else m)
            (snapshot_members dir)
        in
        let load_as what members =
          (match Aladin_store.Snapshot.save dir members with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          let w2, report = Warehouse.load_dir dir in
          check Alcotest.bool (what ^ ": clean load") true
            (Aladin_store.Load_report.is_clean report);
          check Alcotest.(list string) (what ^ ": each link once")
            (render_links (Warehouse.links w))
            (render_links (Warehouse.links w2));
          check Alcotest.bool (what ^ ": correspondences") true
            (Warehouse.correspondences w = Warehouse.correspondences w2);
          w2
        in
        ignore (load_as "beside pairs.txt" members);
        (* a store saved before pairs.txt existed: the pair store is
           re-seeded from the records, one entry per link *)
        let reseeded =
          load_as "without pairs.txt"
            (List.filter
               (fun (m : Aladin_store.Snapshot.member) -> m.path <> "pairs.txt")
               members)
        in
        Tmp.rm_rf dir;
        save_dir_exn reseeded dir;
        let plinks =
          match Aladin_store.Snapshot.find (snapshot_members dir) "pairs.txt" with
          | Some doc ->
              List.length
                (List.filter
                   (String.starts_with ~prefix:"plink\t")
                   (String.split_on_char '\n' doc))
          | None -> Alcotest.fail "no pairs.txt"
        in
        Tmp.rm_rf dir;
        check Alcotest.int "each link seeded once"
          (List.length (Warehouse.links w)) plinks);
    Alcotest.test_case
      "a rejected duplicate leaves the duplicates, also after a relink"
      `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.integrate c.catalogs in
        let before = Warehouse.duplicates w in
        let pair_of (l : L.Link.t) =
          List.sort String.compare
            [ L.Objref.to_string l.src; L.Objref.to_string l.dst ]
        in
        (* a duplicate pair that is a cluster of its own *)
        let l =
          match
            List.find_opt
              (fun l -> List.mem (pair_of l) before.clusters)
              before.links
          with
          | Some l -> l
          | None -> Alcotest.fail "no two-object cluster"
        in
        Warehouse.reject_link w l;
        let gone stage =
          let d = Warehouse.duplicates w in
          check Alcotest.bool (stage ^ ": link gone") false
            (List.exists (same_endpoints l) d.links);
          check Alcotest.bool (stage ^ ": cluster gone") false
            (List.mem (pair_of l) d.clusters);
          d
        in
        let d = gone "rejected" in
        same_links "rejected: the other duplicates"
          (List.filter
             (fun l' -> not (same_endpoints l l'))
             before.links)
          d.links;
        check Alcotest.int "rejected: one cluster fewer"
          (List.length before.clusters - 1)
          (List.length d.clusters);
        (* re-adding a source of the link rediscovers it *)
        (match Warehouse.catalog w l.src.source with
        | Some cat -> ignore (Warehouse.add_source w cat)
        | None -> Alcotest.fail "no source");
        ignore (gone "relinked"));
    Alcotest.test_case "load_dir returns the saved warehouse's duplicates"
      `Quick (fun () ->
        let w = Lazy.force warehouse in
        let d = Warehouse.duplicates w in
        check Alcotest.bool "clusters to compare" true (d.clusters <> []);
        let dir = Tmp.path "dups" in
        save_dir_exn w dir;
        let w2, report = Warehouse.load_dir dir in
        Tmp.rm_rf dir;
        check Alcotest.bool "clean load" true
          (Aladin_store.Load_report.is_clean report);
        same_duplicates "loaded" d (Warehouse.duplicates w2));
    Alcotest.test_case
      "random operations keep the link view, its duplicates and reloads"
      `Quick (fun () ->
        let c = Lazy.force small_corpus in
        let held_out, rest =
          match List.rev c.catalogs with
          | last :: rest -> (last, List.rev rest)
          | [] -> Alcotest.fail "no catalogs"
        in
        let base = Tmp.path "viewbase" in
        save_dir_exn (Warehouse.integrate rest) base;
        let covered = ref [] in
        let run_case ops =
          let w = ref (fst (Warehouse.load_dir base)) in
          List.iteri
            (fun i op ->
              (match op with
              | Reject (k, dup) -> (
                  let links = Warehouse.links !w in
                  let dups =
                    List.filter
                      (fun (l : L.Link.t) -> l.kind = L.Link.Duplicate)
                      links
                  in
                  let pool = if dup && dups <> [] then dups else links in
                  match pool with
                  | [] -> ()
                  | _ ->
                      let l = List.nth pool (k mod List.length pool) in
                      covered := l.kind :: !covered;
                      Warehouse.reject_link !w l)
              | Reload ->
                  let dir = Tmp.path "reload" in
                  save_dir_exn !w dir;
                  w := fst (Warehouse.load_dir dir);
                  Tmp.rm_rf dir
              | Add_held_out -> ignore (Warehouse.add_source !w held_out)
              | Update_text -> (
                  match Warehouse.catalog !w "uniprot" with
                  | Some cat ->
                      let edited = edit_text cat in
                      ignore
                        (Warehouse.update_source !w edited
                           ~changed_rows:(Catalog.total_rows edited))
                  | None -> Alcotest.fail "no uniprot"));
              check_promises
                (Printf.sprintf "op %d (%s)" i (view_op_name op))
                !w)
            ops
        in
        Fun.protect
          ~finally:(fun () -> Tmp.rm_rf base)
          (fun () ->
            QCheck.Test.check_exn
              ~rand:(Random.State.make [| view_ops_seed |])
              (QCheck.Test.make ~name:"view promises under random operations"
                 ~count:6
                 (QCheck.make
                    ~print:(fun ops ->
                      String.concat "; " (List.map view_op_name ops))
                    view_ops_gen)
                 (fun ops ->
                   run_case ops;
                   true)));
        check Alcotest.bool "a Duplicate link was rejected" true
          (List.mem L.Link.Duplicate !covered));
  ]

let tests =
  [
    ("core.warehouse", warehouse_tests);
    ("core.pair_store", pair_store_tests);
    ("core.merged_view", merged_view_tests);
    ("core.views", view_tests);
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
    ("linkdisc.linker", linker_tests);
  ]
