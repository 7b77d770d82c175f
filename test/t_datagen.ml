open Aladin_relational
open Aladin_datagen

let check = Alcotest.check

let rng_tests =
  [
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 20 do
          check Alcotest.int "same" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let sa = List.init 10 (fun _ -> Rng.int a 1000000) in
        let sb = List.init 10 (fun _ -> Rng.int b 1000000) in
        check Alcotest.bool "diverge" true (sa <> sb));
    Alcotest.test_case "bad bounds raise" `Quick (fun () ->
        let a = Rng.create 1 in
        (match Rng.int a 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
        match Rng.choice a [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "range inclusive" `Quick (fun () ->
        let a = Rng.create 5 in
        let seen = Hashtbl.create 8 in
        for _ = 1 to 200 do
          Hashtbl.replace seen (Rng.range a 1 3) ()
        done;
        check Alcotest.int "all three" 3 (Hashtbl.length seen));
    Alcotest.test_case "sample distinct" `Quick (fun () ->
        let a = Rng.create 5 in
        let s = Rng.sample a 3 [ 1; 2; 3; 4; 5 ] in
        check Alcotest.int "three" 3 (List.length s);
        check Alcotest.int "distinct" 3 (List.length (List.sort_uniq Int.compare s)));
    Alcotest.test_case "shuffle is permutation" `Quick (fun () ->
        let a = Rng.create 5 in
        let xs = [ 1; 2; 3; 4; 5; 6 ] in
        check Alcotest.(list int) "same elements" xs
          (List.sort Int.compare (Rng.shuffle a xs)));
    Alcotest.test_case "pattern shape" `Quick (fun () ->
        let a = Rng.create 5 in
        let s = Rng.pattern a "P##@@-#" in
        check Alcotest.int "length" 7 (String.length s);
        check Alcotest.bool "prefix" true (s.[0] = 'P');
        check Alcotest.bool "digit" true (s.[1] >= '0' && s.[1] <= '9');
        check Alcotest.bool "letter" true (s.[3] >= 'A' && s.[3] <= 'Z');
        check Alcotest.bool "dash" true (s.[5] = '-'));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int in bounds" ~count:200
         QCheck.(pair small_int (int_range 1 1000))
         (fun (seed, n) ->
           let r = Rng.create seed in
           let v = Rng.int r n in
           v >= 0 && v < n));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"float in bounds" ~count:200 QCheck.small_int
         (fun seed ->
           let r = Rng.create seed in
           let v = Rng.float r 1.0 in
           v >= 0.0 && v < 1.0));
  ]

let names_tests =
  [
    Alcotest.test_case "gene_symbol shape" `Quick (fun () ->
        let r = Rng.create 1 in
        let s = Names.gene_symbol r in
        check Alcotest.bool "has letter" true
          (String.exists (fun c -> c >= 'A' && c <= 'Z') s);
        check Alcotest.bool "has digit" true
          (String.exists (fun c -> c >= '0' && c <= '9') s));
    Alcotest.test_case "description mentions subject" `Quick (fun () ->
        let r = Rng.create 1 in
        let d = Names.description r "SUBJ99" in
        check Alcotest.bool "subject" true
          (Aladin_text.Strdist.contains ~needle:"SUBJ99" d));
    Alcotest.test_case "description embeds mention" `Quick (fun () ->
        let r = Rng.create 1 in
        let d = Names.description r ~mention:"OTHER1" "SUBJ99" in
        check Alcotest.bool "mention" true
          (Aladin_text.Strdist.contains ~needle:"OTHER1" d));
    Alcotest.test_case "protein_name nonempty" `Quick (fun () ->
        let r = Rng.create 1 in
        check Alcotest.bool "words" true (String.length (Names.protein_name r) > 5));
  ]

let seq_gen_tests =
  [
    Alcotest.test_case "dna alphabet and length" `Quick (fun () ->
        let r = Rng.create 1 in
        let s = Seq_gen.dna r 50 in
        check Alcotest.int "len" 50 (String.length s);
        check Alcotest.bool "alphabet" true
          (Aladin_seq.Alphabet.is_over ~alphabet:Aladin_seq.Alphabet.dna s));
    Alcotest.test_case "protein alphabet" `Quick (fun () ->
        let r = Rng.create 1 in
        check Alcotest.bool "alphabet" true
          (Aladin_seq.Alphabet.is_over ~alphabet:Aladin_seq.Alphabet.protein
             (Seq_gen.protein r 40)));
    Alcotest.test_case "mutate rate zero is identity" `Quick (fun () ->
        let r = Rng.create 1 in
        let s = Seq_gen.dna r 60 in
        check Alcotest.string "same" s (Seq_gen.mutate r ~rate:0.0 s));
    Alcotest.test_case "mutate changes at high rate" `Quick (fun () ->
        let r = Rng.create 1 in
        let s = Seq_gen.dna r 60 in
        check Alcotest.bool "differs" true (Seq_gen.mutate r ~rate:0.5 s <> s));
    Alcotest.test_case "family size and relatedness" `Quick (fun () ->
        (* a family's proteins are mutants of one ancestor: each aligns
           with the family's first to at least half the shorter one's self
           score *)
        let u = Universe.generate Universe.default_params in
        let proteins = Universe.of_kind u Universe.Protein in
        let p = Universe.default_params in
        for fam = 0 to p.n_families - 1 do
          let seqs =
            List.filter_map
              (fun (e : Universe.entity) ->
                if e.family = Some fam then e.sequence else None)
              proteins
          in
          match seqs with
          | anc :: rest ->
              List.iter
                (fun m ->
                  let m62 = Aladin_seq.Subst_matrix.blosum62 in
                  let shorter = if String.length m < String.length anc then m else anc in
                  let score = Aladin_seq.Align.local_score ~matrix:m62 anc m in
                  check Alcotest.bool "homologous" true
                    (2 * score >= Aladin_seq.Align.self_score m62 shorter))
                rest
          | [] -> ()
        done;
        check Alcotest.int "size" p.n_proteins (List.length proteins));
  ]

let entities u =
  List.concat_map (Universe.of_kind u)
    Universe.[ Protein; Gene; Structure; Disease; Term; Interaction ]

let universe_tests =
  [
    Alcotest.test_case "counts per kind" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let p = Universe.default_params in
        check Alcotest.int "proteins" p.n_proteins
          (List.length (Universe.of_kind u Universe.Protein));
        check Alcotest.int "genes" p.n_genes
          (List.length (Universe.of_kind u Universe.Gene));
        check Alcotest.int "terms" p.n_terms
          (List.length (Universe.of_kind u Universe.Term)));
    Alcotest.test_case "related uids valid" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        List.iter
          (fun (e : Universe.entity) ->
            List.iter
              (fun uid -> ignore (Universe.entity u uid))
              e.related)
          (entities u));
    Alcotest.test_case "proteins have sequences and families" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        List.iter
          (fun (e : Universe.entity) ->
            check Alcotest.bool "seq" true (e.sequence <> None);
            check Alcotest.bool "family" true (e.family <> None))
          (Universe.of_kind u Universe.Protein));
    Alcotest.test_case "structures reference proteins" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        List.iter
          (fun (e : Universe.entity) ->
            match e.related with
            | [ uid ] ->
                check Alcotest.bool "protein" true
                  ((Universe.entity u uid).kind = Universe.Protein)
            | _ -> Alcotest.fail "structure without protein")
          (Universe.of_kind u Universe.Structure));
    Alcotest.test_case "deterministic by seed" `Quick (fun () ->
        let u1 = Universe.generate Universe.default_params in
        let u2 = Universe.generate Universe.default_params in
        check Alcotest.bool "equal" true
          (List.map (fun (e : Universe.entity) -> e.name) (entities u1)
          = List.map (fun (e : Universe.entity) -> e.name) (entities u2)));
  ]

let corrupt_tests =
  [
    Alcotest.test_case "typo changes string" `Quick (fun () ->
        let r = Rng.create 1 in
        let s = "abcdefgh" in
        check Alcotest.bool "differs" true (Corrupt.value r ~rate:1.0 s <> s));
    Alcotest.test_case "short strings unchanged" `Quick (fun () ->
        let r = Rng.create 1 in
        check Alcotest.string "same" "a" (Corrupt.value r ~rate:1.0 "a"));
    Alcotest.test_case "rate zero identity" `Quick (fun () ->
        let r = Rng.create 1 in
        check Alcotest.string "same" "hello" (Corrupt.value r ~rate:0.0 "hello"));
  ]

let small_corpus_params =
  {
    Corpus.default_params with
    universe =
      { Universe.default_params with n_proteins = 30; n_genes = 15;
        n_structures = 12; n_diseases = 6; n_terms = 10; n_families = 4 };
  }

let source_gen_tests =
  [
    Alcotest.test_case "catalog shape" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec = Source_gen.make_spec ~name:"s" Universe.Protein in
        let assignment = [ ("s", Source_gen.assign_accessions u spec) ] in
        let gold = Gold.create () in
        let cat = Source_gen.build u assignment ~gold spec in
        check Alcotest.bool "entry" true (Catalog.find cat "entry" <> None);
        check Alcotest.bool "sequence_data" true (Catalog.find cat "sequence_data" <> None);
        check Alcotest.bool "comment" true (Catalog.find cat "comment" <> None);
        check Alcotest.bool "keyword" true (Catalog.find cat "keyword" <> None);
        check Alcotest.bool "organism" true (Catalog.find cat "organism" <> None));
    Alcotest.test_case "accessions unique and patterned" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec = Source_gen.make_spec ~name:"s" Universe.Protein in
        let accs = List.map snd (Source_gen.assign_accessions u spec) in
        check Alcotest.int "distinct" (List.length accs)
          (List.length (List.sort_uniq String.compare accs));
        List.iter
          (fun a ->
            check Alcotest.int "len 6" 6 (String.length a);
            check Alcotest.bool "P prefix" true (a.[0] = 'P'))
          accs);
    Alcotest.test_case "gold rows match catalog" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec = Source_gen.make_spec ~name:"s" Universe.Protein in
        let assignment = [ ("s", Source_gen.assign_accessions u spec) ] in
        let gold = Gold.create () in
        let cat = Source_gen.build u assignment ~gold spec in
        match Gold.find_source gold "s" with
        | None -> Alcotest.fail "no gold"
        | Some sg ->
            check Alcotest.int "objects = rows"
              (Relation.cardinality (Catalog.find_exn cat "entry"))
              (List.length sg.objects);
            check Alcotest.bool "fks recorded" true (List.length sg.fks >= 4));
    Alcotest.test_case "xrefs written and recorded" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let s1 = Source_gen.make_spec ~name:"s1" Universe.Protein ~seed:11 in
        let s2 =
          Source_gen.make_spec ~name:"s2" Universe.Protein ~seed:22
            ~xref_to:[ "s1" ] ~xref_prob:1.0
        in
        let assignment =
          [ ("s1", Source_gen.assign_accessions u s1);
            ("s2", Source_gen.assign_accessions u s2) ]
        in
        let gold = Gold.create () in
        let _ = Source_gen.build u assignment ~gold s1 in
        let cat2 = Source_gen.build u assignment ~gold s2 in
        let dbx = Catalog.find_exn cat2 "dbxref" in
        check Alcotest.int "rows = gold xrefs" (Relation.cardinality dbx)
          (List.length gold.xrefs);
        check Alcotest.bool "some xrefs" true (gold.xrefs <> []));
    Alcotest.test_case "declare_constraints mode" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec =
          Source_gen.make_spec ~name:"s" Universe.Protein
            ~shape:{ Source_gen.default_shape with declare_constraints = true }
        in
        let assignment = [ ("s", Source_gen.assign_accessions u spec) ] in
        let gold = Gold.create () in
        let cat = Source_gen.build u assignment ~gold spec in
        check Alcotest.bool "constraints" true (Catalog.constraints cat <> []));
    Alcotest.test_case "missing assignment raises" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec = Source_gen.make_spec ~name:"s" Universe.Protein in
        match Source_gen.build u [] ~gold:(Gold.create ()) spec with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "no error");
  ]

let fk_noise_tests =
  [
    Alcotest.test_case "dangling FKs break referential integrity" `Quick
      (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec =
          Source_gen.make_spec ~name:"s" Universe.Protein ~fk_noise:0.5 ~seed:5
        in
        let assignment = [ ("s", Source_gen.assign_accessions u spec) ] in
        let gold = Gold.create () in
        let cat = Source_gen.build u assignment ~gold spec in
        let comment = Catalog.find_exn cat "comment" in
        let entry_rows = Relation.cardinality (Catalog.find_exn cat "entry") in
        let dangling =
          List.fold_left
            (fun acc row ->
              match row.(1) with
              | Value.Int v when v > entry_rows -> acc + 1
              | _ -> acc)
            0 (Relation.rows comment)
        in
        check Alcotest.bool "some dangle" true (dangling > 0));
    Alcotest.test_case "zero noise keeps integrity" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec = Source_gen.make_spec ~name:"s" Universe.Protein ~seed:5 in
        let assignment = [ ("s", Source_gen.assign_accessions u spec) ] in
        let gold = Gold.create () in
        let cat = Source_gen.build u assignment ~gold spec in
        let comment = Catalog.find_exn cat "comment" in
        let entry_rows = Relation.cardinality (Catalog.find_exn cat "entry") in
        Relation.iter_rows
          (fun row ->
            match row.(1) with
            | Value.Int v ->
                check Alcotest.bool "in range" true (v >= 1 && v <= entry_rows)
            | _ -> Alcotest.fail "non-int fk")
          comment);
    Alcotest.test_case "term source gets isa hierarchy" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let spec =
          Source_gen.make_spec ~name:"go" Universe.Term ~coverage:1.0 ~seed:5
            ~shape:
              { Source_gen.default_shape with primary_name = "term";
                accession_pattern = "GO:00#####"; with_sequence_table = false;
                with_keyword_dictionary = false; with_organism_dictionary = false }
        in
        let assignment = [ ("go", Source_gen.assign_accessions u spec) ] in
        let gold = Gold.create () in
        let cat = Source_gen.build u assignment ~gold spec in
        let isa = Catalog.find_exn cat "term_isa" in
        let terms = Relation.cardinality (Catalog.find_exn cat "term") in
        check Alcotest.int "forest size" (terms - 2) (Relation.cardinality isa));
    Alcotest.test_case "dual primary deterministic" `Quick (fun () ->
        let u = Universe.generate Universe.default_params in
        let c1, _ = Source_gen.build_dual_primary u ~name:"e" in
        let c2, _ = Source_gen.build_dual_primary u ~name:"e" in
        check Alcotest.int "same rows" (Catalog.total_rows c1) (Catalog.total_rows c2));
  ]

let gold_tests =
  [
    Alcotest.test_case "duplicate_pairs cross-source same uid" `Quick (fun () ->
        let g = Gold.create () in
        Gold.add_source g
          { Gold.source = "a"; primary_relation = "p"; accession_attribute = "acc";
            fks = []; objects = [ ("A1", 100); ("A2", 200) ] };
        Gold.add_source g
          { Gold.source = "b"; primary_relation = "p"; accession_attribute = "acc";
            fks = []; objects = [ ("B1", 100); ("B3", 300) ] };
        check Alcotest.(list (pair string string)) "one pair" [ ("a:A1", "b:B1") ]
          (Gold.duplicate_pairs g));
    Alcotest.test_case "entity_of" `Quick (fun () ->
        let g = Gold.create () in
        Gold.add_source g
          { Gold.source = "a"; primary_relation = "p"; accession_attribute = "acc";
            fks = []; objects = [ ("A1", 100) ] };
        let entity_of source acc =
          Option.bind (Gold.find_source g source) (fun (sg : Gold.source_gold) ->
              List.assoc_opt acc sg.objects)
        in
        check Alcotest.(option int) "uid" (Some 100) (entity_of "a" "A1");
        check Alcotest.(option int) "missing" None (entity_of "a" "ZZ"));
  ]

let corpus_tests =
  [
    Alcotest.test_case "default source family" `Quick (fun () ->
        let c = Corpus.generate small_corpus_params in
        let names = List.map Catalog.name c.catalogs in
        List.iter
          (fun n -> check Alcotest.bool n true (List.mem n names))
          [ "go"; "uniprot"; "pir"; "pdb"; "genedb"; "omim" ]);
    Alcotest.test_case "gold covers every source" `Quick (fun () ->
        let c = Corpus.generate small_corpus_params in
        check Alcotest.int "same count"
          (List.length c.catalogs)
          (List.length c.gold.sources));
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let c1 = Corpus.generate small_corpus_params in
        let c2 = Corpus.generate small_corpus_params in
        check Alcotest.int "same xrefs" (List.length c1.gold.xrefs)
          (List.length c2.gold.xrefs));
    Alcotest.test_case "flat file member parses" `Quick (fun () ->
        let c =
          Corpus.generate { small_corpus_params with include_flat_file = true }
        in
        check Alcotest.bool "swissflat" true
          (List.mem "swissflat" (List.map Catalog.name c.catalogs));
        match List.find_opt (fun cat -> Catalog.name cat = "swissflat") c.catalogs with
        | Some cat -> check Alcotest.bool "bioentry" true (Catalog.find cat "bioentry" <> None)
        | None -> Alcotest.fail "missing catalog");
    Alcotest.test_case "duplicates exist between protein sources" `Quick (fun () ->
        let c = Corpus.generate small_corpus_params in
        check Alcotest.bool "gold dups" true (Gold.duplicate_pairs c.gold <> []));
    Alcotest.test_case "family_pairs nonempty" `Quick (fun () ->
        let c = Corpus.generate small_corpus_params in
        check Alcotest.bool "pairs" true (Gold.family_pairs c.universe c.gold <> []));
  ]

let tests =
  [
    ("datagen.rng", rng_tests);
    ("datagen.names", names_tests);
    ("datagen.seq_gen", seq_gen_tests);
    ("datagen.universe", universe_tests);
    ("datagen.corrupt", corrupt_tests);
    ("datagen.source_gen", source_gen_tests);
    ("datagen.fk_noise", fk_noise_tests);
    ("datagen.gold", gold_tests);
    ("datagen.corpus", corpus_tests);
  ]
