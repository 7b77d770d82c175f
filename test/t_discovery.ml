open Aladin_relational
open Aladin_discovery

let check = Alcotest.check

(* a miniature life-science source: entry (primary), seq (1:1),
   comment (1:N), kw dictionary + bridge *)
let mini_source () =
  let cat = Catalog.create ~name:"mini" in
  let entry =
    Catalog.create_relation cat ~name:"entry"
      (Schema.of_names [ "entry_id"; "accession"; "description" ])
  in
  List.iteri
    (fun i (acc, d) ->
      Relation.insert entry [| Value.Int (i + 1); Value.text acc; Value.text d |])
    (* description lengths vary > 20 % so accession stays the key *)
    [ ("AB001", "first entry about kinases");
      ("AB002", "second one");
      ("AB003", "the third entry is about transport and much longer") ];
  let seq =
    Catalog.create_relation cat ~name:"seqdata"
      (Schema.of_names [ "entry_id"; "seq_text" ])
  in
  List.iteri
    (fun i s -> Relation.insert seq [| Value.Int (i + 1); Value.text s |])
    [ "ACGTACGTACGTACGTAAAA"; "CCGTACGTACGTACGTAAAA"; "TTTTGGGGCCCCAAAATTTT" ];
  let comment =
    Catalog.create_relation cat ~name:"comment"
      (Schema.of_names [ "comment_id"; "entry_id"; "comment_text" ])
  in
  List.iteri
    (fun i (eid, text) ->
      Relation.insert comment [| Value.Int (i + 1); Value.Int eid; Value.text text |])
    [ (1, "a note about the first one"); (1, "another note"); (2, "note two") ];
  let bridge =
    Catalog.create_relation cat ~name:"entry_kw"
      (Schema.of_names [ "entry_id"; "kw_id" ])
  in
  List.iter
    (fun (e, k) -> Relation.insert bridge [| Value.Int e; Value.Int k |])
    [ (1, 1); (2, 1); (2, 2) ];
  let kw =
    Catalog.create_relation cat ~name:"kw" (Schema.of_names [ "kw_id"; "kw_name" ])
  in
  List.iteri
    (fun i n -> Relation.insert kw [| Value.Int (i + 1); Value.text n |])
    [ "binding"; "repair" ];
  cat

let profile_tests =
  [
    Alcotest.test_case "stats lookup" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let cs = Profile.stats p ~relation:"entry" ~attribute:"accession" in
        check Alcotest.int "rows" 3 cs.rows;
        check Alcotest.bool "unique" true cs.all_unique);
    Alcotest.test_case "unknown raises" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        Alcotest.check_raises "missing" Not_found (fun () ->
            ignore (Profile.stats p ~relation:"entry" ~attribute:"zz")));
    Alcotest.test_case "values cached set" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let v1 = Profile.values p ~relation:"entry" ~attribute:"entry_id" in
        check Alcotest.int "card" 3 (Vset.cardinal v1));
    Alcotest.test_case "unique_attributes" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let u = Profile.unique_attributes p in
        check Alcotest.bool "accession in" true (List.mem ("entry", "accession") u);
        check Alcotest.bool "comment fk not in" false
          (List.mem ("comment", "entry_id") u));
    Alcotest.test_case "declared unique wins" `Quick (fun () ->
        let cat = Catalog.create ~name:"d" in
        let t = Catalog.create_relation cat ~name:"t" (Schema.of_names [ "a" ]) in
        Relation.insert t [| Value.Int 1 |];
        Relation.insert t [| Value.Int 1 |];
        Catalog.declare cat (Constraint_def.Unique { relation = "t"; attribute = "a" });
        let p = Profile.compute cat in
        check Alcotest.bool "declared" true (Profile.is_unique p ~relation:"t" ~attribute:"a"));
  ]

let accession_tests =
  let profile_of rows =
    let cat = Catalog.create ~name:"x" in
    let t = Catalog.create_relation cat ~name:"t" (Schema.of_names [ "a" ]) in
    List.iter (fun v -> Relation.insert t [| Value.text v |]) rows;
    Profile.compute cat
  in
  let candidate_of p =
    Accession.candidates p
    |> List.map (fun (c : Accession.candidate) -> (c.relation, c.attribute))
  in
  [
    Alcotest.test_case "accepts accession shape" `Quick (fun () ->
        let p = profile_of [ "AB001"; "AB002"; "AB003" ] in
        check Alcotest.(list (pair string string)) "found" [ ("t", "a") ] (candidate_of p));
    Alcotest.test_case "rejects short values" `Quick (fun () ->
        let p = profile_of [ "A1"; "B2"; "C3" ] in
        check Alcotest.int "none" 0 (List.length (candidate_of p)));
    Alcotest.test_case "rejects numeric-only" `Quick (fun () ->
        let cat = Catalog.create ~name:"x" in
        let t = Catalog.create_relation cat ~name:"t" (Schema.of_names [ "a" ]) in
        List.iter (fun v -> Relation.insert t [| Value.Int v |]) [ 1001; 1002; 1003 ];
        check Alcotest.int "none" 0
          (List.length (Accession.candidates (Profile.compute cat))));
    Alcotest.test_case "rejects length spread > 20%" `Quick (fun () ->
        let p = profile_of [ "AB1"; "ABCDEFGH02"; "ABCD3" ] in
        check Alcotest.int "none" 0 (List.length (candidate_of p)));
    Alcotest.test_case "rejects non-unique" `Quick (fun () ->
        let p = profile_of [ "AB001"; "AB001"; "AB002" ] in
        check Alcotest.int "none" 0 (List.length (candidate_of p)));
    Alcotest.test_case "rejects nulls" `Quick (fun () ->
        let cat = Catalog.create ~name:"x" in
        let t = Catalog.create_relation cat ~name:"t" (Schema.of_names [ "a" ]) in
        Relation.insert t [| Value.text "AB001" |];
        Relation.insert t [| Value.Null |];
        check Alcotest.int "none" 0
          (List.length (Accession.candidates (Profile.compute cat))));
    Alcotest.test_case "longest average wins within relation" `Quick (fun () ->
        let cat = Catalog.create ~name:"x" in
        let t = Catalog.create_relation cat ~name:"t" (Schema.of_names [ "a"; "b" ]) in
        List.iter
          (fun (a, b) -> Relation.insert t [| Value.text a; Value.text b |])
          [ ("AB01", "LONGACC001"); ("AB02", "LONGACC002"); ("AB03", "LONGACC003") ];
        match Accession.candidates (Profile.compute cat) with
        | [ c ] -> check Alcotest.string "b wins" "b" c.attribute
        | cs -> Alcotest.fail (Printf.sprintf "%d candidates" (List.length cs)));
    Alcotest.test_case "params ablation: min_length" `Quick (fun () ->
        let p = profile_of [ "A1X"; "B2Y"; "C3Z" ] in
        let params = { Accession.default_params with min_length = 3 } in
        check Alcotest.int "found with 3" 1
          (List.length (Accession.candidates ~params p)));
    (* regression: real-world accession shapes must satisfy the per-value
       letter test (min_alpha_frac = 1.0) *)
    Alcotest.test_case "accepts UniProt-shaped accessions" `Quick (fun () ->
        let p = profile_of [ "P12345"; "Q67890"; "O43210" ] in
        check Alcotest.(list (pair string string)) "found" [ ("t", "a") ]
          (candidate_of p));
    Alcotest.test_case "accepts GenBank-shaped accessions" `Quick (fun () ->
        let p = profile_of [ "NM_000546"; "NM_000547"; "NM_000548" ] in
        check Alcotest.(list (pair string string)) "found" [ ("t", "a") ]
          (candidate_of p));
    Alcotest.test_case "accepts GO-term-shaped accessions" `Quick (fun () ->
        let p = profile_of [ "GO:0008150"; "GO:0003674"; "GO:0005575" ] in
        check Alcotest.(list (pair string string)) "found" [ ("t", "a") ]
          (candidate_of p));
    Alcotest.test_case "rejects digits-plus-separator (documented deviation)"
      `Quick (fun () ->
        (* the paper's rule ("at least one non-digit") would accept these;
           our stricter letter test treats them as surrogate-key-shaped —
           see the deviation note on min_alpha_frac in accession.ml *)
        let p = profile_of [ "12:34567"; "12:34568"; "12:34569" ] in
        check Alcotest.int "none" 0 (List.length (candidate_of p)));
  ]

let inclusion_tests =
  [
    Alcotest.test_case "finds fk by subset" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let fks = Inclusion.infer p in
        check Alcotest.bool "comment fk" true
          (List.exists
             (fun (fk : Inclusion.fk) ->
               fk.src_relation = "comment" && fk.src_attribute = "entry_id"
               && fk.dst_relation = "entry")
             fks));
    Alcotest.test_case "1:1 for sequence table" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let fks = Inclusion.infer p in
        match
          List.find_opt
            (fun (fk : Inclusion.fk) -> fk.src_relation = "seqdata")
            fks
        with
        | Some fk ->
            check Alcotest.bool "one-to-one" true (fk.cardinality = Inclusion.One_to_one)
        | None -> Alcotest.fail "seqdata fk missing");
    Alcotest.test_case "bridge has two fks" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let fks = Inclusion.infer p in
        let from_bridge =
          List.filter (fun (fk : Inclusion.fk) -> fk.src_relation = "entry_kw") fks
        in
        check Alcotest.int "two" 2 (List.length from_bridge));
    Alcotest.test_case "declared fks preserved" `Quick (fun () ->
        let cat = mini_source () in
        Catalog.declare cat
          (Constraint_def.Foreign_key
             { src_relation = "comment"; src_attribute = "entry_id";
               dst_relation = "entry"; dst_attribute = "entry_id" });
        let p = Profile.compute cat in
        let fks = Inclusion.infer p in
        check Alcotest.bool "declared origin" true
          (List.exists
             (fun (fk : Inclusion.fk) ->
               fk.origin = `Declared && fk.src_relation = "comment")
             fks));
    Alcotest.test_case "name_affinity" `Quick (fun () ->
        (* three unique integer keys 1..3: the pk-pk guard keeps only the
           pair whose names correspond *)
        let cat = Catalog.create ~name:"x" in
        List.iter
          (fun (rel, attr) ->
            let r = Catalog.create_relation cat ~name:rel (Schema.of_names [ attr ]) in
            for i = 1 to 3 do
              Relation.insert r [| Value.Int i |]
            done)
          [ ("taxon", "taxon_id"); ("org", "taxon_id"); ("bioentry", "bioentry_id") ];
        let fks = Inclusion.infer (Profile.compute cat) in
        let linked a b =
          List.exists
            (fun (fk : Inclusion.fk) ->
              (fk.src_relation = a && fk.dst_relation = b)
              || (fk.src_relation = b && fk.dst_relation = a))
            fks
        in
        check Alcotest.bool "taxon_id vs taxon" true (linked "org" "taxon");
        check Alcotest.bool "unrelated" false (linked "taxon" "bioentry"));
    Alcotest.test_case "pk-pk guard blocks surrogate confusion" `Quick (fun () ->
        (* two dictionary tables whose integer keys are both 1..3 *)
        let cat = Catalog.create ~name:"x" in
        let a = Catalog.create_relation cat ~name:"colors" (Schema.of_names [ "colors_id"; "cname" ]) in
        let b = Catalog.create_relation cat ~name:"shapes" (Schema.of_names [ "shapes_id"; "sname" ]) in
        List.iteri
          (fun i n -> Relation.insert a [| Value.Int (i + 1); Value.text n |])
          [ "redx"; "bluex"; "greenx" ];
        List.iteri
          (fun i n -> Relation.insert b [| Value.Int (i + 1); Value.text n |])
          [ "circlex"; "squarex"; "trianglex" ];
        let fks = Inclusion.infer (Profile.compute cat) in
        check Alcotest.int "no spurious fk" 0 (List.length fks));
    Alcotest.test_case "guard can be disabled" `Quick (fun () ->
        let cat = Catalog.create ~name:"x" in
        let a = Catalog.create_relation cat ~name:"colors" (Schema.of_names [ "colors_id" ]) in
        let b = Catalog.create_relation cat ~name:"shapes" (Schema.of_names [ "shapes_id" ]) in
        for i = 1 to 3 do
          Relation.insert a [| Value.Int i |];
          Relation.insert b [| Value.Int i |]
        done;
        let params =
          { Inclusion.default_params with require_name_affinity_for_pk_pk = false }
        in
        check Alcotest.bool "spurious appears" true
          (Inclusion.infer ~params (Profile.compute cat) <> []));
    Alcotest.test_case "type classes never mix" `Quick (fun () ->
        let cat = Catalog.create ~name:"x" in
        let a = Catalog.create_relation cat ~name:"t" (Schema.of_names [ "num"; "txt" ]) in
        List.iter
          (fun (n, s) -> Relation.insert a [| Value.Int n; Value.text s |])
          [ (1, "AAA1"); (2, "BBB2"); (3, "CCC3") ];
        let fks = Inclusion.infer (Profile.compute cat) in
        check Alcotest.bool "no int->text fk" true
          (not
             (List.exists
                (fun (fk : Inclusion.fk) ->
                  fk.src_attribute = "num" && fk.dst_attribute = "txt")
                fks)));
    Alcotest.test_case "candidate_pairs_considered positive" `Quick (fun () ->
        let p = Profile.compute (mini_source ()) in
        let tr = Aladin_obs.Trace.create () in
        ignore (Aladin_obs.Trace.with_ambient tr (fun () -> Inclusion.infer p));
        check Alcotest.bool "pairs > 0" true
          (Aladin_obs.Trace.counter_value tr "fk.pairs_considered" > 0));
  ]

let graph_of_mini () =
  let cat = mini_source () in
  let p = Profile.compute cat in
  let fks = Inclusion.infer p in
  Fk_graph.build ~relations:(Catalog.relation_names cat) fks

let fk_graph_tests =
  [
    Alcotest.test_case "in_degree of primary" `Quick (fun () ->
        let g = graph_of_mini () in
        check Alcotest.bool "entry highest" true
          (Fk_graph.in_degree g "entry" >= 3));
    Alcotest.test_case "unknown relation zero" `Quick (fun () ->
        let g = graph_of_mini () in
        check Alcotest.int "zero" 0 (Fk_graph.in_degree g "nope"));
    Alcotest.test_case "neighbors undirected" `Quick (fun () ->
        let g = graph_of_mini () in
        (* one hop each way: paths follow foreign keys in both directions *)
        let one_hop src dst =
          match List.assoc_opt dst (Fk_graph.paths_from g ~src ~max_len:1) with
          | Some (_ :: _) -> true
          | Some [] | None -> false
        in
        check Alcotest.bool "entry<->comment both" true
          (one_hop "entry" "comment" && one_hop "comment" "entry"));
    Alcotest.test_case "paths_from reach all" `Quick (fun () ->
        let g = graph_of_mini () in
        let paths = Fk_graph.paths_from g ~src:"entry" ~max_len:4 in
        check Alcotest.int "four others" 4 (List.length paths));
    Alcotest.test_case "shortest path first" `Quick (fun () ->
        let g = graph_of_mini () in
        let paths = Fk_graph.paths_from g ~src:"entry" ~max_len:5 in
        match List.assoc_opt "kw" paths with
        | Some (first :: _) -> check Alcotest.int "2 hops via bridge" 2 (List.length first)
        | Some [] | None -> Alcotest.fail "kw unreachable");
    Alcotest.test_case "average in-degree" `Quick (fun () ->
        let g = graph_of_mini () in
        check Alcotest.bool "positive" true (Fk_graph.average_in_degree g > 0.0));
  ]

let primary_tests =
  [
    Alcotest.test_case "choose picks entry" `Quick (fun () ->
        let cat = mini_source () in
        let p = Profile.compute cat in
        let cands = Accession.candidates p in
        let g = graph_of_mini () in
        match Primary.choose g cands with
        | Some s -> check Alcotest.string "entry" "entry" s.relation
        | None -> Alcotest.fail "no primary");
    Alcotest.test_case "no candidates no primary" `Quick (fun () ->
        let g = graph_of_mini () in
        check Alcotest.bool "none" true (Primary.choose g [] = None));
    Alcotest.test_case "choose_multi falls back to best" `Quick (fun () ->
        let cat = mini_source () in
        let p = Profile.compute cat in
        let cands = Accession.candidates p in
        let g = graph_of_mini () in
        check Alcotest.bool "nonempty" true (Primary.choose_multi g cands <> []));
  ]

let secondary_tests =
  [
    Alcotest.test_case "all relations reached" `Quick (fun () ->
        let g = graph_of_mini () in
        let s = Secondary.discover g ~primary:"entry" in
        check Alcotest.int "entries" 4 (List.length s.entries);
        check Alcotest.int "orphans" 0 (List.length s.orphans));
    Alcotest.test_case "depth ordering" `Quick (fun () ->
        let g = graph_of_mini () in
        let s = Secondary.discover g ~primary:"entry" in
        let depths = List.map (fun (e : Secondary.entry) -> e.depth) s.entries in
        check Alcotest.bool "sorted" true (List.sort Int.compare depths = depths));
    Alcotest.test_case "bridge classified" `Quick (fun () ->
        let g = graph_of_mini () in
        let s = Secondary.discover g ~primary:"entry" in
        match
          List.find_opt (fun (e : Secondary.entry) -> e.relation = "entry_kw") s.entries
        with
        | Some e -> check Alcotest.bool "bridge" true (e.kind = `Bridge)
        | None -> Alcotest.fail "bridge missing");
    Alcotest.test_case "orphan detection" `Quick (fun () ->
        let cat = mini_source () in
        let _ = Catalog.create_relation cat ~name:"island" (Schema.of_names [ "z" ]) in
        let p = Profile.compute cat in
        let fks = Inclusion.infer p in
        let g = Fk_graph.build ~relations:(Catalog.relation_names cat) fks in
        let s = Secondary.discover g ~primary:"entry" in
        check Alcotest.(list string) "island orphan" [ "island" ] s.orphans);
  ]

let source_profile_tests =
  [
    Alcotest.test_case "analyze end-to-end" `Quick (fun () ->
        let sp = Source_profile.analyze (mini_source ()) in
        check Alcotest.(option string) "primary" (Some "entry")
          (Source_profile.primary_relation sp);
        check Alcotest.bool "secondary present" true (sp.secondary <> None));
    Alcotest.test_case "biosql case study: bioentry is primary" `Quick (fun () ->
        (* the paper's §5 example, through the real flat-file parser *)
        let doc = T_formats.sample_swissprot in
        let cat = Aladin_formats.Swissprot.parse doc in
        let sp = Source_profile.analyze cat in
        check Alcotest.(option (pair string string)) "primary accession"
          (Some ("bioentry", "accession"))
          (Source_profile.primary_accession sp));
    Alcotest.test_case "with_primary override" `Quick (fun () ->
        let sp = Source_profile.analyze (mini_source ()) in
        let sp2 = Source_profile.with_primary sp ~relation:"kw" in
        check Alcotest.(option string) "kw" (Some "kw")
          (Source_profile.primary_relation sp2));
    Alcotest.test_case "with_primary unknown raises" `Quick (fun () ->
        let sp = Source_profile.analyze (mini_source ()) in
        match Source_profile.with_primary sp ~relation:"nope" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
  ]

let multi_primary_tests =
  [
    Alcotest.test_case "dual-primary source: both found" `Quick (fun () ->
        let u = Aladin_datagen.Universe.generate Aladin_datagen.Universe.default_params in
        let cat, expected =
          Aladin_datagen.Source_gen.build_dual_primary u ~name:"ensembl"
        in
        let sp = Source_profile.analyze cat in
        let multi =
          Primary.choose_multi sp.graph sp.accession_candidates
          |> List.map (fun (s : Primary.scored) -> s.relation)
          |> List.sort String.compare
        in
        check Alcotest.(list string) "clone+gene"
          (List.sort String.compare (List.map fst expected))
          multi);
    Alcotest.test_case "single choose still deterministic" `Quick (fun () ->
        let u = Aladin_datagen.Universe.generate Aladin_datagen.Universe.default_params in
        let cat, _ = Aladin_datagen.Source_gen.build_dual_primary u ~name:"ensembl" in
        let sp = Source_profile.analyze cat in
        check Alcotest.(option string) "one of them" (Some "clone")
          (Source_profile.primary_relation sp));
    Alcotest.test_case "none above the margin falls back to best" `Quick
      (fun () ->
        let u = Aladin_datagen.Universe.generate Aladin_datagen.Universe.default_params in
        let cat, _ = Aladin_datagen.Source_gen.build_dual_primary u ~name:"ensembl" in
        let sp = Source_profile.analyze cat in
        (* without foreign keys every in-degree is the average, 0 *)
        let flat = Fk_graph.build ~relations:(Catalog.relation_names cat) [] in
        check Alcotest.int "one" 1
          (List.length (Primary.choose_multi flat sp.accession_candidates)));
  ]

let approx_ind_tests =
  [
    Alcotest.test_case "dangling FK breaks exact, approximate recovers" `Quick
      (fun () ->
        let cat = Catalog.create ~name:"dirty" in
        let parent =
          Catalog.create_relation cat ~name:"parent"
            (Schema.of_names [ "parent_id"; "label" ])
        in
        for i = 1 to 20 do
          Relation.insert parent
            [| Value.Int i; Value.text (Printf.sprintf "LBL%02d" i) |]
        done;
        let child =
          Catalog.create_relation cat ~name:"child"
            (Schema.of_names [ "child_id"; "parent_id" ])
        in
        for i = 1 to 20 do
          (* one dangling reference *)
          let v = if i = 7 then 999 else i in
          Relation.insert child [| Value.Int i; Value.Int v |]
        done;
        let has_fk params =
          Inclusion.infer ~params (Profile.compute cat)
          |> List.exists (fun (fk : Inclusion.fk) ->
                 fk.src_relation = "child" && fk.dst_relation = "parent")
        in
        check Alcotest.bool "exact misses" false (has_fk Inclusion.default_params);
        check Alcotest.bool "approximate finds" true
          (has_fk { Inclusion.default_params with min_containment = 0.9 }));
  ]

let tests =
  [
    ("discovery.profile", profile_tests);
    ("discovery.multi_primary", multi_primary_tests);
    ("discovery.approx_ind", approx_ind_tests);
    ("discovery.accession", accession_tests);
    ("discovery.inclusion", inclusion_tests);
    ("discovery.fk_graph", fk_graph_tests);
    ("discovery.primary", primary_tests);
    ("discovery.secondary", secondary_tests);
    ("discovery.source_profile", source_profile_tests);
  ]

(* the class column of [attribute]'s row in [relation]'s table of the
   rendered report *)
let class_of sp ~relation ~attribute =
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let rec section = function
    | [] -> None
    | l :: rest when l <> "" && l.[0] <> ' ' && List.hd (words l) = relation ->
        row rest
    | _ :: rest -> section rest
  and row = function
    | [] | "" :: _ -> None
    | l :: rest -> (
        match words l with
        | a :: (_ :: _ as cols) when a = attribute -> Some (List.nth cols (List.length cols - 1))
        | _ -> row rest)
  in
  section (String.split_on_char '\n' (Profile_report.render sp))

let profile_report_tests =
  [
    Alcotest.test_case "classes assigned" `Quick (fun () ->
        let sp = Source_profile.analyze (mini_source ()) in
        check Alcotest.(option string) "accession" (Some "accession")
          (class_of sp ~relation:"entry" ~attribute:"accession");
        check Alcotest.(option string) "fk" (Some "foreign-key")
          (class_of sp ~relation:"comment" ~attribute:"entry_id");
        check Alcotest.(option string) "sequence" (Some "sequence")
          (class_of sp ~relation:"seqdata" ~attribute:"seq_text"));
    Alcotest.test_case "render mentions primary and relations" `Quick (fun () ->
        let sp = Source_profile.analyze (mini_source ()) in
        let r = Profile_report.render sp in
        let contains needle = Aladin_text.Strdist.contains ~needle r in
        check Alcotest.bool "primary line" true (contains "primary relation: entry");
        check Alcotest.bool "kw table" true (contains "kw (2 rows)");
        check Alcotest.bool "bridge" true (contains "bridge"));
  ]

let tests = tests @ [ ("discovery.profile_report", profile_report_tests) ]
