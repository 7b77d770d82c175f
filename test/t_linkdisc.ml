open Aladin_relational
open Aladin_discovery
open Aladin_links

let check = Alcotest.check

(* two tiny cross-referencing sources:
   src_a: entry (primary, AX accessions) + dbxref rows pointing at src_b
   src_b: prot (primary, BX accessions) with descriptions + sequences *)
let source_a () =
  let cat = Catalog.create ~name:"src_a" in
  let entry =
    Catalog.create_relation cat ~name:"entry"
      (Schema.of_names [ "entry_id"; "accession"; "descr" ])
  in
  List.iteri
    (fun i (acc, d) ->
      Relation.insert entry [| Value.Int (i + 1); Value.text acc; Value.text d |])
    (* description lengths vary widely so that [descr] fails the accession
       length-spread rule and [accession] stays the key *)
    [ ("AX001", "alpha kinase protein involved in DNA repair pathways and signaling");
      ("AX002", "beta transporter protein briefly");
      ("AX003", "gamma receptor protein binding extracellular calcium ligands here") ];
  let dbx =
    Catalog.create_relation cat ~name:"dbxref"
      (Schema.of_names [ "dbxref_id"; "entry_id"; "accession" ])
  in
  List.iteri
    (fun i (eid, target) ->
      Relation.insert dbx [| Value.Int (i + 1); Value.Int eid; Value.text target |])
    [ (1, "BX901"); (2, "BX902"); (3, "SRCB:BX903") ];
  let seq =
    Catalog.create_relation cat ~name:"seqdata"
      (Schema.of_names [ "entry_id"; "seq_text" ])
  in
  Relation.insert seq
    [| Value.Int 1; Value.text "ACGTACGGTACCATGGCATCGATCGGCTAGCTAGGCTAACG" |];
  cat

let source_b () =
  let cat = Catalog.create ~name:"src_b" in
  let prot =
    Catalog.create_relation cat ~name:"prot"
      (Schema.of_names [ "prot_id"; "accession"; "prot_name"; "descr" ])
  in
  List.iteri
    (fun i (acc, name, d) ->
      Relation.insert prot
        [| Value.Int (i + 1); Value.text acc; Value.text name; Value.text d |])
    [ ("BX901", "KIN1A", "alpha kinase protein involved in DNA repair pathways and more");
      ("BX902", "TRP2B", "a transporter of things briefly");
      ("BX903", "RCP3C", "some receptor protein binding extracellular calcium ligand sets") ];
  let seq =
    Catalog.create_relation cat ~name:"bseq"
      (Schema.of_names [ "prot_id"; "seq_text" ])
  in
  Relation.insert seq
    [| Value.Int 1; Value.text "ACGTACGGTACCATGGCTTCGATCGGCTAGCTAGGCTAACG" |];
  cat

let profiles () =
  Profile_list.of_profiles
    [ Source_profile.analyze (source_a ()); Source_profile.analyze (source_b ()) ]

(* one source whose first two proteins carry near-identical sequences *)
let source_paralogs () =
  let cat = Catalog.create ~name:"src_p" in
  let prot =
    Catalog.create_relation cat ~name:"prot"
      (Schema.of_names [ "prot_id"; "accession"; "prot_name"; "descr" ])
  in
  List.iteri
    (fun i (acc, name, d) ->
      Relation.insert prot
        [| Value.Int (i + 1); Value.text acc; Value.text name; Value.text d |])
    [ ("PX001", "KIN1A", "alpha kinase protein involved in DNA repair pathways");
      ("PX002", "KIN1B", "a kinase paralog");
      ("PX003", "RCP3C", "some receptor protein binding extracellular calcium") ];
  let seq =
    Catalog.create_relation cat ~name:"pseq"
      (Schema.of_names [ "prot_id"; "seq_text" ])
  in
  Relation.insert seq
    [| Value.Int 1; Value.text "ACGTACGGTACCATGGCATCGATCGGCTAGCTAGGCTAACG" |];
  Relation.insert seq
    [| Value.Int 2; Value.text "ACGTACGGTACCATGGCTTCGATCGGCTAGCTAGGCTAACG" |];
  cat

let link_key l =
  let l = Link.normalized l in
  Objref.to_string l.Link.src ^ "|" ^ Objref.to_string l.Link.dst

let objref_tests =
  [
    Alcotest.test_case "to_string and compare" `Quick (fun () ->
        let a = Objref.make ~source:"s" ~relation:"r" ~accession:"X1" in
        let b = Objref.make ~source:"s" ~relation:"r" ~accession:"X2" in
        check Alcotest.string "str" "s:X1" (Objref.to_string a);
        check Alcotest.bool "order" true (Objref.compare a b < 0);
        check Alcotest.bool "equal" true (Objref.equal a a));
  ]

let link_tests =
  let obj s acc = Objref.make ~source:s ~relation:"r" ~accession:acc in
  [
    Alcotest.test_case "normalized orders symmetric kinds" `Quick (fun () ->
        let l =
          Link.make ~src:(obj "z" "Z") ~dst:(obj "a" "A") ~kind:Link.Duplicate
            ~confidence:0.9 ~evidence:"e"
        in
        let n = Link.normalized l in
        check Alcotest.string "src" "a:A" (Objref.to_string n.src));
    Alcotest.test_case "xref keeps direction" `Quick (fun () ->
        let l =
          Link.make ~src:(obj "z" "Z") ~dst:(obj "a" "A") ~kind:Link.Xref
            ~confidence:0.9 ~evidence:"e"
        in
        check Alcotest.string "src" "z:Z" (Objref.to_string (Link.normalized l).src));
    Alcotest.test_case "dedup keeps max confidence" `Quick (fun () ->
        let mk c =
          Link.make ~src:(obj "a" "A") ~dst:(obj "b" "B") ~kind:Link.Text_similarity
            ~confidence:c ~evidence:"e"
        in
        match Link.dedup [ mk 0.3; mk 0.8; mk 0.5 ] with
        | [ l ] -> check (Alcotest.float 0.001) "conf" 0.8 l.confidence
        | ls -> Alcotest.fail (Printf.sprintf "%d links" (List.length ls)));
    Alcotest.test_case "dedup respects kind" `Quick (fun () ->
        let mk kind =
          Link.make ~src:(obj "a" "A") ~dst:(obj "b" "B") ~kind ~confidence:0.5
            ~evidence:"e"
        in
        check Alcotest.int "two kinds" 2
          (List.length (Link.dedup [ mk Link.Xref; mk Link.Duplicate ])));
    Alcotest.test_case "same_endpoints symmetric" `Quick (fun () ->
        let l1 =
          Link.make ~src:(obj "a" "A") ~dst:(obj "b" "B") ~kind:Link.Duplicate
            ~confidence:0.5 ~evidence:"e"
        in
        let l2 =
          Link.make ~src:(obj "b" "B") ~dst:(obj "a" "A") ~kind:Link.Duplicate
            ~confidence:0.7 ~evidence:"e"
        in
        check Alcotest.bool "same" true (Link.same_endpoints l1 l2));
  ]

let owner_map_tests =
  [
    Alcotest.test_case "primary rows own themselves" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "self" [ "AX001" ]
          (Owner_map.owners om ~relation:"entry" ~row:0));
    Alcotest.test_case "secondary rows owned" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "dbxref row 1 -> AX002" [ "AX002" ]
          (Owner_map.owners om ~relation:"dbxref" ~row:1));
    Alcotest.test_case "unknown relation empty" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "empty" [] (Owner_map.owners om ~relation:"zz" ~row:0));
    Alcotest.test_case "objref for accession" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.bool "found" true (Owner_map.objref om ~accession:"AX001" <> None);
        check Alcotest.bool "missing" true (Owner_map.objref om ~accession:"zz" = None));
    Alcotest.test_case "primary accessions in order" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "accs" [ "AX001"; "AX002"; "AX003" ]
          (Owner_map.primary_accessions om));
  ]

let prune_tests =
  [
    Alcotest.test_case "numeric excluded" `Quick (fun () ->
        let cs =
          Col_stats.of_column ~relation:"r" ~attribute:"a"
            (Array.init 10 (fun i -> Value.Int i))
        in
        check Alcotest.bool "pruned" false
          (Prune.is_link_source Prune.default_params cs));
    Alcotest.test_case "few distinct excluded" `Quick (fun () ->
        let cs =
          Col_stats.of_column ~relation:"r" ~attribute:"a"
            [| Value.text "same"; Value.text "same" |]
        in
        check Alcotest.bool "pruned" false (Prune.is_link_source Prune.default_params cs));
    Alcotest.test_case "accession-like passes" `Quick (fun () ->
        let cs =
          Col_stats.of_column ~relation:"r" ~attribute:"a"
            [| Value.text "AB001"; Value.text "AB002"; Value.text "AB003" |]
        in
        check Alcotest.bool "kept" true (Prune.is_link_source Prune.default_params cs));
    Alcotest.test_case "no_pruning passes numerics" `Quick (fun () ->
        let cs =
          Col_stats.of_column ~relation:"r" ~attribute:"a" [| Value.Int 1; Value.Int 2 |]
        in
        check Alcotest.bool "kept" true (Prune.is_link_source Prune.no_pruning cs));
    Alcotest.test_case "pruning shrinks comparison space" `Quick (fun () ->
        let ps = profiles () in
        let pruned = Prune.pairs_to_compare Prune.default_params ps in
        let full = Prune.pairs_to_compare Prune.no_pruning ps in
        check Alcotest.bool "fewer" true (pruned < full);
        check Alcotest.bool "positive" true (pruned > 0));
    Alcotest.test_case "is_text_field" `Quick (fun () ->
        let long =
          Col_stats.of_column ~relation:"r" ~attribute:"a"
            [| Value.text (String.concat " " (List.init 10 (fun _ -> "word"))) |]
        in
        check Alcotest.bool "text" true (Prune.is_text_field long));
  ]

let xref_tests =
  [
    Alcotest.test_case "decode_candidates" `Quick (fun () ->
        let toks = Xref_disc.decode_candidates "Uniprot:P11140" in
        check Alcotest.bool "tail found" true (List.mem "P11140" toks);
        check Alcotest.bool "whole first" true (List.hd toks = "Uniprot:P11140"));
    Alcotest.test_case "finds exact and encoded refs" `Quick (fun () ->
        let r = Xref_disc.discover (profiles ()) in
        let keys =
          List.map
            (fun (l : Link.t) ->
              (Objref.to_string l.src, Objref.to_string l.dst))
            r.links
        in
        check Alcotest.bool "AX001->BX901" true
          (List.mem ("src_a:AX001", "src_b:BX901") keys);
        check Alcotest.bool "encoded AX003->BX903" true
          (List.mem ("src_a:AX003", "src_b:BX903") keys));
    Alcotest.test_case "correspondence recorded" `Quick (fun () ->
        let r = Xref_disc.discover (profiles ()) in
        check Alcotest.bool "dbxref.accession" true
          (List.exists
             (fun (c : Xref_disc.correspondence) ->
               c.src_relation = "dbxref" && c.src_attribute = "accession"
               && c.dst_source = "src_b")
             r.correspondences));
    Alcotest.test_case "min_matches blocks sparse" `Quick (fun () ->
        let params = { Xref_disc.default_params with min_matches = 10 } in
        let r = Xref_disc.discover ~params (profiles ()) in
        check Alcotest.int "no links" 0 (List.length r.links));
    Alcotest.test_case "counters populated" `Quick (fun () ->
        let r = Xref_disc.discover (profiles ()) in
        check Alcotest.bool "scanned" true (r.attributes_scanned > 0);
        check Alcotest.bool "compared" true (r.pairs_compared > 0));
  ]

let seq_link_tests =
  [
    Alcotest.test_case "sequence fields detected" `Quick (fun () ->
        let fields = Seq_links.sequence_fields Seq_links.default_params (profiles ()) in
        check Alcotest.bool "src_a seqdata" true
          (List.exists
             (fun (f : Seq_links.seq_field) ->
               f.source = "src_a" && f.relation = "seqdata")
             fields);
        check Alcotest.bool "descr not sequence" true
          (not
             (List.exists
                (fun (f : Seq_links.seq_field) -> f.attribute = "descr")
                fields)));
    Alcotest.test_case "homolog link found cross-source" `Quick (fun () ->
        let r = Seq_links.discover (profiles ()) in
        check Alcotest.bool "link AX001-BX901" true
          (List.exists
             (fun (l : Link.t) ->
               l.kind = Link.Seq_similarity
               && ((l.src.Objref.accession = "AX001" && l.dst.Objref.accession = "BX901")
                  || (l.src.Objref.accession = "BX901" && l.dst.Objref.accession = "AX001")))
             r.links));
    Alcotest.test_case "indexing counter" `Quick (fun () ->
        let r = Seq_links.discover (profiles ()) in
        check Alcotest.int "two sequences" 2 r.sequences_indexed);
  ]

let seq_state_tests =
  [
    Alcotest.test_case "state matches batch discovery" `Quick (fun () ->
        let ps = profiles () in
        let batch = Seq_links.discover ps in
        let st = Seq_links.state_create () in
        let fresh_a = Seq_links.state_add_source st ps ~source:"src_a" in
        let fresh_b = Seq_links.state_add_source st ps ~source:"src_b" in
        check Alcotest.int "first add finds nothing new" 0 (List.length fresh_a);
        check Alcotest.bool "second add finds the pair" true (fresh_b <> []);
        check
          Alcotest.(list string)
          "same links"
          (List.sort String.compare (List.map link_key batch.links))
          (List.sort String.compare
             (List.map link_key (Link.dedup (fresh_a @ fresh_b)))));
    Alcotest.test_case "same-source homologs without cross_source_only" `Quick
      (fun () ->
        let ps =
          Profile_list.of_profiles [ Source_profile.analyze (source_paralogs ()) ]
        in
        let params =
          { Seq_links.default_params with cross_source_only = false }
        in
        let st = Seq_links.state_create ~params () in
        let fresh = Seq_links.state_add_source st ps ~source:"src_p" in
        check Alcotest.(list string) "paralog link" [ "src_p:PX001|src_p:PX002" ]
          (List.map link_key fresh);
        check Alcotest.(list string) "batch agrees"
          (List.map link_key (Seq_links.discover ~params ps).links)
          (List.map link_key fresh);
        let st = Seq_links.state_create () in
        check Alcotest.int "dropped when cross-source only" 0
          (List.length (Seq_links.state_add_source st ps ~source:"src_p")));
    Alcotest.test_case "double add raises" `Quick (fun () ->
        let ps = profiles () in
        let st = Seq_links.state_create () in
        ignore (Seq_links.state_add_source st ps ~source:"src_a");
        match Seq_links.state_add_source st ps ~source:"src_a" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "sources tracked in order" `Quick (fun () ->
        let ps = profiles () in
        let st = Seq_links.state_create () in
        ignore (Seq_links.state_add_source st ps ~source:"src_a");
        ignore (Seq_links.state_add_source st ps ~source:"src_b");
        check Alcotest.(list string) "order" [ "src_a"; "src_b" ]
          (Seq_links.state_sources st));
  ]

let text_link_tests =
  [
    Alcotest.test_case "documents assembled per object" `Quick (fun () ->
        let docs = Text_links.object_documents (profiles ()) in
        check Alcotest.bool "some docs" true (List.length docs >= 4);
        check Alcotest.bool "AX001 has doc" true
          (List.exists
             (fun ((o : Objref.t), d) -> o.accession = "AX001" && d <> "")
             docs));
    Alcotest.test_case "similar descriptions linked" `Quick (fun () ->
        let params = { Text_links.default_params with min_cosine = 0.4 } in
        let r = Text_links.discover ~params (profiles ()) in
        check Alcotest.bool "AX001~BX901" true
          (List.exists
             (fun (l : Link.t) ->
               l.kind = Link.Text_similarity
               && ((l.src.Objref.accession = "AX001" && l.dst.Objref.accession = "BX901")
                  || (l.src.Objref.accession = "BX901" && l.dst.Objref.accession = "AX001")))
             r.links));
    Alcotest.test_case "no same-source links by default" `Quick (fun () ->
        let r = Text_links.discover (profiles ()) in
        check Alcotest.bool "all cross" true
          (List.for_all
             (fun (l : Link.t) -> l.src.Objref.source <> l.dst.Objref.source)
             r.links));
    Alcotest.test_case "discover identical at pool sizes 1/2/4" `Quick
      (fun () ->
        let norm (r : Text_links.result) =
          ( List.map (Format.asprintf "%a" Link.pp) r.links,
            r.documents,
            r.mention_links )
        in
        let params = { Text_links.default_params with min_cosine = 0.3 } in
        let base = norm (Text_links.discover ~params (profiles ())) in
        List.iter
          (fun domains ->
            let p = Aladin_par.Pool.create ~domains () in
            Fun.protect
              ~finally:(fun () -> Aladin_par.Pool.shutdown p)
              (fun () ->
                check
                  Alcotest.(triple (list string) int int)
                  (Printf.sprintf "domains=%d" domains)
                  base
                  (norm (Text_links.discover ~params ~pool:p (profiles ())))))
          [ 1; 2; 4 ]);
  ]

(* a source pair built for entity mentions: src_c's primary relation has a
   name-like symbol column (all-alpha, unique, 3..25 chars) whose lengths
   vary widely so it fails the accession length-spread/min-length rules and
   [accession] stays the key; src_d's text fields mention those symbols *)
let mention_source_c () =
  let cat = Catalog.create ~name:"src_c" in
  let gene =
    Catalog.create_relation cat ~name:"gene"
      (Schema.of_names [ "gene_id"; "accession"; "symbol" ])
  in
  List.iteri
    (fun i (acc, sym) ->
      Relation.insert gene [| Value.Int (i + 1); Value.text acc; Value.text sym |])
    [ ("CX001", "alphakin");
      ("CX002", "betatransporterkinase");
      ("CX003", "grx") ];
  cat

let mention_source_d () =
  let cat = Catalog.create ~name:"src_d" in
  let entry =
    Catalog.create_relation cat ~name:"entry"
      (Schema.of_names [ "entry_id"; "accession"; "descr" ])
  in
  List.iteri
    (fun i (acc, d) ->
      Relation.insert entry [| Value.Int (i + 1); Value.text acc; Value.text d |])
    (* description lengths vary widely so that [descr] fails the accession
       length-spread rule and [accession] stays the key *)
    [ ("DX001", "this enzyme interacts with alphakin during nucleotide repair");
      ("DX002", "inert decoy");
      ("DX003",
       "weak homolog of betatransporterkinase observed in two hybrid assays") ];
  cat

let mention_profiles () =
  Profile_list.of_profiles
    [ Source_profile.analyze (mention_source_c ());
      Source_profile.analyze (mention_source_d ()) ]

let mention_link_tests =
  [
    Alcotest.test_case "dictionary symbols in text become mention links"
      `Quick (fun () ->
        let r = Text_links.discover (mention_profiles ()) in
        let mention src dst =
          List.exists
            (fun (l : Link.t) ->
              l.kind = Link.Entity_mention
              && ((l.src.Objref.accession = src && l.dst.Objref.accession = dst)
                 || (l.src.Objref.accession = dst && l.dst.Objref.accession = src)))
            r.links
        in
        check Alcotest.bool "DX001 mentions alphakin/CX001" true
          (mention "DX001" "CX001");
        check Alcotest.bool "DX003 mentions betatransporterkinase/CX002" true
          (mention "DX003" "CX002");
        check Alcotest.bool "counted" true (r.mention_links >= 2));
    Alcotest.test_case "mention links equal the old recognize-then-filter path"
      `Quick (fun () ->
        (* the old pass scored EVERY token's surface shape, then dropped
           non-dictionary mentions at the lookup; replicate it and compare
           the resulting link set with the dictionary-only fast path *)
        let ps = mention_profiles () in
        let r = Text_links.discover ps in
        let fast =
          List.filter (fun (l : Link.t) -> l.kind = Link.Entity_mention) r.links
          |> List.map (Format.asprintf "%a" Link.pp)
        in
        let module Tx = Aladin_text in
        let dict : (string, Objref.t) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (sym, acc) ->
            Hashtbl.replace dict sym
              (Objref.make ~source:"src_c" ~relation:"gene" ~accession:acc))
          [ ("alphakin", "CX001");
            ("betatransporterkinase", "CX002");
            ("grx", "CX003") ];
        let recognizer = Tx.Entity_recog.create () in
        Tx.Entity_recog.add_dictionary recognizer
          (Hashtbl.fold (fun name _ acc -> name :: acc) dict []);
        let old_links = ref [] in
        List.iter
          (fun (obj, doc) ->
            Tx.Entity_recog.recognize recognizer ~min_score:1.0 doc
            |> List.iter (fun (m : Tx.Entity_recog.mention) ->
                   match
                     Hashtbl.find_opt dict (String.lowercase_ascii m.surface)
                   with
                   | None -> ()
                   | Some target ->
                       if
                         obj.Objref.source <> target.Objref.source
                         && not (Objref.equal obj target)
                       then
                         old_links :=
                           Link.make ~src:obj ~dst:target
                             ~kind:Link.Entity_mention
                             ~confidence:(0.6 *. m.score)
                             ~evidence:(Printf.sprintf "mention %S" m.surface)
                           :: !old_links))
          (Text_links.object_documents ps);
        let old_path =
          Link.dedup !old_links |> List.map (Format.asprintf "%a" Link.pp)
        in
        check Alcotest.(list string) "same links" old_path fast);
  ]

let count_by_kind_tests =
  let obj s acc = Objref.make ~source:s ~relation:"r" ~accession:acc in
  let mk i kind =
    Link.make ~src:(obj "a" (Printf.sprintf "A%d" i)) ~dst:(obj "b" "B1") ~kind
      ~confidence:0.9 ~evidence:"t"
  in
  [
    Alcotest.test_case "counts in kind order, zero kinds omitted" `Quick
      (fun () ->
        let links =
          List.concat
            [ List.init 3 (fun i -> mk i Link.Text_similarity);
              List.init 2 (fun i -> mk i Link.Xref);
              [ mk 0 Link.Duplicate ] ]
        in
        check
          Alcotest.(list (pair string int))
          "counts"
          [ ("xref", 2); ("text", 3); ("duplicate", 1) ]
          (List.map
             (fun (k, n) -> (Link.kind_name k, n))
             (Linker.count_by_kind links)));
    Alcotest.test_case "empty" `Quick (fun () ->
        check Alcotest.int "none" 0 (List.length (Linker.count_by_kind [])));
  ]

let onto_tests =
  let obj s acc = Objref.make ~source:s ~relation:"r" ~accession:acc in
  let obj' s relation acc = Objref.make ~source:s ~relation ~accession:acc in
  let xref src dst =
    Link.make ~src ~dst ~kind:Link.Xref ~confidence:0.9 ~evidence:"t"
  in
  [
    Alcotest.test_case "shared target links pair" `Quick (fun () ->
        let term = obj "go" "GO:1" in
        let r =
          Onto_links.discover
            ~xrefs:[ xref (obj "a" "A1") term; xref (obj "b" "B1") term ]
            ()
        in
        check Alcotest.int "one link" 1 (List.length r.links);
        check Alcotest.bool "kind" true
          ((List.hd r.links).kind = Link.Shared_term));
    Alcotest.test_case "same-source pair not linked" `Quick (fun () ->
        let term = obj "go" "GO:1" in
        let r =
          Onto_links.discover
            ~xrefs:[ xref (obj "a" "A1") term; xref (obj "a" "A2") term ]
            ()
        in
        check Alcotest.int "none" 0 (List.length r.links));
    Alcotest.test_case "hub skipped" `Quick (fun () ->
        let term = obj "go" "GO:1" in
        let xrefs =
          List.init 30 (fun i -> xref (obj (Printf.sprintf "s%d" i) "A") term)
        in
        let r = Onto_links.discover ~params:{ Onto_links.default_params with max_fanout = 10 } ~xrefs () in
        check Alcotest.int "skipped" 1 r.hub_targets_skipped;
        check Alcotest.int "no links" 0 (List.length r.links));
    Alcotest.test_case "hierarchy expansion links siblings" `Quick (fun () ->
        (* A refs term T1, B refs term T2; T1 and T2 are both children of P *)
        let t1 = obj "go" "GO:1" and t2 = obj "go" "GO:2" and p = obj "go" "GO:P" in
        let a = obj "a" "A1" and b = obj "b" "B1" in
        let parents o =
          if Objref.equal o t1 || Objref.equal o t2 then [ p ] else []
        in
        let without =
          Onto_links.discover ~xrefs:[ xref a t1; xref b t2 ] ()
        in
        check Alcotest.int "no link without hierarchy" 0
          (List.length without.links);
        let with_h =
          Onto_links.discover ~parents ~xrefs:[ xref a t1; xref b t2 ] ()
        in
        check Alcotest.int "linked via parent" 1 (List.length with_h.links));
    Alcotest.test_case "parents_from_profiles finds term_isa" `Quick (fun () ->
        let u = Aladin_datagen.Universe.generate Aladin_datagen.Universe.default_params in
        let spec =
          Aladin_datagen.Source_gen.make_spec ~name:"go" Aladin_datagen.Universe.Term
            ~coverage:1.0
            ~shape:
              { Aladin_datagen.Source_gen.default_shape with
                primary_name = "term"; accession_pattern = "GO:00#####";
                with_sequence_table = false; with_keyword_dictionary = false;
                with_organism_dictionary = false }
        in
        let assignment =
          [ ("go", Aladin_datagen.Source_gen.assign_accessions u spec) ]
        in
        let gold = Aladin_datagen.Gold.create () in
        let cat = Aladin_datagen.Source_gen.build u assignment ~gold spec in
        let profiles =
          Profile_list.of_profiles [ Source_profile.analyze cat ]
        in
        let parents = Onto_links.parents_from_profiles profiles in
        let has_parent =
          Profile_list.entries profiles
          |> List.concat_map (fun (e : Profile_list.entry) ->
                 Owner_map.primary_accessions e.owner)
          |> List.exists (fun acc ->
                 parents (obj' "go" "term" acc) <> [])
        in
        check Alcotest.bool "some term has a parent" true has_parent);
    Alcotest.test_case "min_shared" `Quick (fun () ->
        let t1 = obj "go" "GO:1" and t2 = obj "go" "GO:2" in
        let a = obj "a" "A1" and b = obj "b" "B1" in
        let r =
          Onto_links.discover
            ~params:{ Onto_links.default_params with min_shared = 2 }
            ~xrefs:[ xref a t1; xref b t1; xref a t2; xref b t2 ]
            ()
        in
        check Alcotest.int "one strong link" 1 (List.length r.links));
  ]

let linker_tests =
  [
    Alcotest.test_case "all kinds discovered" `Quick (fun () ->
        let r = Linker.discover (profiles ()) in
        let kinds = List.map fst (Linker.count_by_kind r.links) in
        check Alcotest.bool "xref" true (List.mem Link.Xref kinds);
        check Alcotest.bool "seq" true (List.mem Link.Seq_similarity kinds));
    Alcotest.test_case "disable flags" `Quick (fun () ->
        let params =
          { Linker.default_params with enable_seq = false; enable_text = false;
            enable_onto = false }
        in
        let r = Linker.discover ~params (profiles ()) in
        check Alcotest.bool "no seq result" true (r.seq_result = None);
        check Alcotest.bool "only xrefs" true
          (List.for_all (fun (l : Link.t) -> l.kind = Link.Xref) r.links));
  ]

let tests =
  [
    ("linkdisc.objref", objref_tests);
    ("linkdisc.link", link_tests);
    ("linkdisc.owner_map", owner_map_tests);
    ("linkdisc.prune", prune_tests);
    ("linkdisc.xref_disc", xref_tests);
    ("linkdisc.seq_links", seq_link_tests);
    ("linkdisc.seq_state", seq_state_tests);
    ("linkdisc.text_links", text_link_tests);
    ("linkdisc.mention_links", mention_link_tests);
    ("linkdisc.count_by_kind", count_by_kind_tests);
    ("linkdisc.onto_links", onto_tests);
    ("linkdisc.linker", linker_tests);
  ]
