open Aladin_relational
open Aladin_formats

let check = Alcotest.check

(* name lengths vary (11/9/6) so that [name] fails the 20 % length-spread
   accession test and [accession] is the candidate, as in the paper *)
let sample_swissprot =
  "ID   TEST1_HUMAN\n\
   AC   P11111;\n\
   DE   Test protein one.\n\
   OS   Homo sapiens.\n\
   KW   ATP binding; DNA repair.\n\
   DR   PDB; 1ABC.\n\
   DR   GO; GO:0005524.\n\
   RX   MEDLINE; 12345678; Some title.\n\
   SQ   SEQUENCE 12 AA\n\
   ..   MKWVTFISLLFL\n\
   //\n\
   ID   AB2_MOUSE\n\
   AC   Q22222;\n\
   DE   Test protein number two with a much longer description line.\n\
   OS   Mus musculus.\n\
   KW   ATP binding.\n\
   DR   PDB; 2XYZ.\n\
   //\n\
   ID   C3_FLY\n\
   AC   A33333;\n\
   DE   Third.\n\
   OS   Drosophila melanogaster.\n\
   //\n"

(* one column of a parsed relation, as strings *)
let col cat rel attr =
  Array.to_list (Relation.column (Catalog.find_exn cat rel) attr)
  |> List.map Value.to_string

(* the rows of a parsed relation, as strings *)
let rows cat rel =
  List.map
    (fun row -> Array.to_list (Array.map Value.to_string row))
    (Relation.rows (Catalog.find_exn cat rel))

(* the relations import_string's parser made of [doc] *)
let imported doc =
  match Import.import_string ~name:"x" doc with
  | Ok im -> Some (Catalog.relation_names im.catalog)
  | Error _ -> None

let line_format_tests =
  [
    Alcotest.test_case "records split on //" `Quick (fun () ->
        check Alcotest.int "three records" 3
          (List.length (Line_format.records sample_swissprot)));
    Alcotest.test_case "parse_line" `Quick (fun () ->
        match Line_format.records "AC   P11111;\n//\n" with
        | [ [ l ] ] ->
            check Alcotest.string "code" "AC" l.code;
            check Alcotest.string "payload" "P11111;" l.payload
        | _ -> Alcotest.fail "no line");
    Alcotest.test_case "blank is None" `Quick (fun () ->
        check Alcotest.int "none" 1
          (List.length (List.concat (Line_format.records "   \nAC   X;\n//\n"))));
    Alcotest.test_case "joined concatenates" `Quick (fun () ->
        let lines =
          [ { Line_format.code = "DE"; payload = "part one" };
            { Line_format.code = "DE"; payload = "part two" } ]
        in
        check Alcotest.(option string) "joined" (Some "part one part two")
          (Line_format.joined ~code:"DE" lines);
        check Alcotest.(option string) "missing" None
          (Line_format.joined ~code:"XX" lines));
    Alcotest.test_case "split_list" `Quick (fun () ->
        check Alcotest.(list string) "kws" [ "ATP binding"; "DNA repair" ]
          (Line_format.split_list "ATP binding; DNA repair."));
  ]

let swissprot_tests =
  [
    Alcotest.test_case "bioentry rows" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        let be = Catalog.find_exn cat "bioentry" in
        check Alcotest.int "three entries" 3 (Relation.cardinality be);
        check Alcotest.bool "accession" true
          ((Relation.column be "accession").(0) = Value.Text "P11111");
        check Alcotest.bool "name" true
          ((Relation.column be "name").(0) = Value.Text "TEST1_HUMAN"));
    Alcotest.test_case "taxon dictionary dedups" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        check Alcotest.int "three taxa" 3
          (Relation.cardinality (Catalog.find_exn cat "taxon")));
    Alcotest.test_case "keywords shared via dictionary" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        check Alcotest.int "terms" 2 (Relation.cardinality (Catalog.find_exn cat "term"));
        check Alcotest.int "bridge" 3
          (Relation.cardinality (Catalog.find_exn cat "bioentry_term")));
    Alcotest.test_case "dbxrefs parsed" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        let dx = Catalog.find_exn cat "dbxref" in
        check Alcotest.int "three" 3 (Relation.cardinality dx);
        check Alcotest.bool "target acc" true
          ((Relation.column dx "accession").(0) = Value.Text "1ABC"));
    Alcotest.test_case "sequence reassembled" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        let bs = Catalog.find_exn cat "biosequence" in
        check Alcotest.int "one seq" 1 (Relation.cardinality bs);
        check Alcotest.bool "seq" true
          ((Relation.column bs "biosequence_str").(0) = Value.Text "MKWVTFISLLFL"));
    Alcotest.test_case "reference parsed" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        let r = Catalog.find_exn cat "reference" in
        check Alcotest.int "one" 1 (Relation.cardinality r);
        check Alcotest.bool "pmid" true
          ((Relation.column r "medline_id").(0) = Value.Text "12345678"));
    Alcotest.test_case "no constraints by default" `Quick (fun () ->
        let cat = Swissprot.parse sample_swissprot in
        check Alcotest.int "zero" 0 (List.length (Catalog.constraints cat)));
  ]

let fasta_tests =
  [
    Alcotest.test_case "records parsed" `Quick (fun () ->
        let doc = ">A1 first protein\nMKWV\nTFIS\n>B2\nACGT\n" in
        match rows (Fasta.parse doc) "entry" with
        | [ [ _; acc; desc; seq ]; [ _; _; b_desc; _ ] ] ->
            check Alcotest.string "acc" "A1" acc;
            check Alcotest.string "desc" "first protein" desc;
            check Alcotest.string "seq joined" "MKWVTFIS" seq;
            check Alcotest.string "no desc" "" b_desc
        | rs -> Alcotest.fail (Printf.sprintf "%d records" (List.length rs)));
    Alcotest.test_case "render/parse roundtrip" `Quick (fun () ->
        let rs =
          [ { Fasta.accession = "X1"; description = "d"; sequence = String.make 130 'A' } ]
        in
        check Alcotest.(list (list string)) "roundtrip"
          [ [ "1"; "X1"; "d"; String.make 130 'A' ] ]
          (rows (Fasta.parse (Fasta.render rs)) "entry"));
    Alcotest.test_case "wrapping at 60" `Quick (fun () ->
        let rs =
          [ { Fasta.accession = "X1"; description = ""; sequence = String.make 70 'C' } ]
        in
        let lines = String.split_on_char '\n' (Fasta.render rs) in
        check Alcotest.bool "wrapped" true (List.exists (fun l -> String.length l = 60) lines));
    Alcotest.test_case "parse to catalog" `Quick (fun () ->
        let cat = Fasta.parse ">A1 x\nACGT\n" in
        let e = Catalog.find_exn cat "entry" in
        check Alcotest.int "one row" 1 (Relation.cardinality e));
  ]

let obo_sample =
  "format-version: 1.2\n\n[Term]\nid: GO:0000001\nname: alpha process\n\
   namespace: biological_process\ndef: \"The alpha thing.\" [src]\n\n[Term]\n\
   id: GO:0000002\nname: beta process\nis_a: GO:0000001 ! alpha process\n\n\
   [Typedef]\nid: part_of\n"

let obo_tests =
  [
    Alcotest.test_case "terms parsed" `Quick (fun () ->
        let cat = Obo.parse obo_sample in
        match rows cat "term" with
        | [ [ _; id; name; def; _ ]; _ ] ->
            check Alcotest.string "id" "GO:0000001" id;
            check Alcotest.string "name" "alpha process" name;
            check Alcotest.string "def quoted" "The alpha thing." def;
            (* the is_a parent resolves only with its comment stripped *)
            check Alcotest.(list (list string)) "is_a comment stripped"
              [ [ "2"; "1" ] ] (rows cat "term_isa")
        | ts -> Alcotest.fail (Printf.sprintf "%d terms" (List.length ts)));
    Alcotest.test_case "typedef ignored" `Quick (fun () ->
        check Alcotest.int "two" 2
          (Relation.cardinality (Catalog.find_exn (Obo.parse obo_sample) "term")));
    Alcotest.test_case "catalog has isa" `Quick (fun () ->
        let cat = Obo.parse obo_sample in
        check Alcotest.int "terms" 2 (Relation.cardinality (Catalog.find_exn cat "term"));
        check Alcotest.int "isa" 1
          (Relation.cardinality (Catalog.find_exn cat "term_isa")));
    Alcotest.test_case "render roundtrip" `Quick (fun () ->
        let ts =
          [ { Obo.id = "GO:0000001"; name = "alpha process";
              definition = "The alpha thing."; namespace = "biological_process";
              is_a = [] };
            { Obo.id = "GO:0000002"; name = "beta process"; definition = "";
              namespace = ""; is_a = [ "GO:0000001" ] } ]
        in
        let cat = Obo.parse (Obo.render ts) in
        check Alcotest.(list (list string)) "terms"
          [ [ "1"; "GO:0000001"; "alpha process"; "The alpha thing.";
              "biological_process" ];
            [ "2"; "GO:0000002"; "beta process"; ""; "" ] ]
          (rows cat "term");
        check Alcotest.(list (list string)) "is_a" [ [ "2"; "1" ] ]
          (rows cat "term_isa"));
  ]

let pdb_sample =
  "HEADER    OXIDOREDUCTASE              1ABC\n\
   TITLE     CRYSTAL STRUCTURE OF SOMETHING\n\
   COMPND    SOME PROTEIN\n\
   EXPDTA    X-RAY DIFFRACTION\n\
   DBREF     1ABC A SWS P11111\n\
   SEQRES    A MKWVTFIS\n\
   SEQRES    A LLFLFSSA\n\
   SEQRES    B ACDEFGHI\n\
   END\n\
   HEADER    LYASE              2XYZ\n\
   TITLE     ANOTHER ONE\n\
   END\n"

let pdb_tests =
  [
    Alcotest.test_case "structures parsed" `Quick (fun () ->
        let cat = Pdb_flat.parse pdb_sample in
        let s = Catalog.find_exn cat "structure" in
        check Alcotest.int "two" 2 (Relation.cardinality s);
        check Alcotest.bool "acc" true ((Relation.column s "pdb_acc").(0) = Value.Text "1ABC");
        check Alcotest.bool "class" true
          ((Relation.column s "classification").(0) = Value.Text "OXIDOREDUCTASE"));
    Alcotest.test_case "chains assembled" `Quick (fun () ->
        let cat = Pdb_flat.parse pdb_sample in
        let c = Catalog.find_exn cat "chain" in
        check Alcotest.int "two chains" 2 (Relation.cardinality c);
        check Alcotest.bool "chain A seq" true
          ((Relation.column c "sequence").(0) = Value.Text "MKWVTFISLLFLFSSA"));
    Alcotest.test_case "dbref parsed" `Quick (fun () ->
        let cat = Pdb_flat.parse pdb_sample in
        let r = Catalog.find_exn cat "struct_ref" in
        check Alcotest.int "one" 1 (Relation.cardinality r);
        check Alcotest.bool "acc" true ((Relation.column r "accession").(0) = Value.Text "P11111"));
  ]

let genbank_sample =
  "LOCUS       KIN1HS 60 bp\n\
   DEFINITION  Homo sapiens alpha kinase mRNA,\n\
   \            complete cds.\n\
   ACCESSION   AB123456\n\
   SOURCE      Homo sapiens\n\
   FEATURES             Location/Qualifiers\n\
   \     source          1..60\n\
   \                     /organism=\"Homo sapiens\"\n\
   \     CDS             1..60\n\
   \                     /gene=\"KIN1\"\n\
   \                     /db_xref=\"UniProt:P12345\"\n\
   \                     /pseudo\n\
   ORIGIN\n\
   \        1 atggcgatcg atcgatcgta atggcgatcg atcgatcgta atggcgatcg atcgatcgta\n\
   //\n\
   LOCUS       TRP9SC 30 bp\n\
   DEFINITION  Short one.\n\
   ACCESSION   CD900210\n\
   SOURCE      Saccharomyces cerevisiae\n\
   ORIGIN\n\
   \        1 acgtacgtac gtacgtacgt acgtacgtac\n\
   //\n"

let genbank_tests =
  [
    Alcotest.test_case "records parsed" `Quick (fun () ->
        let cat = Genbank.parse genbank_sample in
        match rows cat "entry" with
        | [ [ _; acc; locus; def; org ]; _ ] ->
            check Alcotest.string "locus" "KIN1HS" locus;
            check Alcotest.string "accession" "AB123456" acc;
            check Alcotest.string "definition continuation"
              "Homo sapiens alpha kinase mRNA, complete cds." def;
            check Alcotest.string "organism" "Homo sapiens" org;
            check Alcotest.(list string) "features of the first entry only"
              [ "1"; "1" ] (col cat "feature" "entry_id");
            (match col cat "genbank_seq" "sequence" with
            | seq :: _ -> check Alcotest.int "seq len" 60 (String.length seq)
            | [] -> Alcotest.fail "no sequence")
        | rs -> Alcotest.fail (Printf.sprintf "%d records" (List.length rs)));
    Alcotest.test_case "qualifiers parsed" `Quick (fun () ->
        let cat = Genbank.parse genbank_sample in
        match List.rev (rows cat "feature") with
        | [ fid; _; key; _ ] :: _ ->
            check Alcotest.string "key" "CDS" key;
            check Alcotest.(list (pair string string)) "quals"
              [ ("gene", "KIN1"); ("db_xref", "UniProt:P12345"); ("pseudo", "") ]
              (List.filter_map
                 (function
                   | [ _; f; k; v ] when f = fid -> Some (k, v) | _ -> None)
                 (rows cat "qualifier"))
        | _ -> Alcotest.fail "no features");
    Alcotest.test_case "catalog shape" `Quick (fun () ->
        let cat = Genbank.parse genbank_sample in
        check Alcotest.int "entries" 2
          (Relation.cardinality (Catalog.find_exn cat "entry"));
        check Alcotest.int "features" 2
          (Relation.cardinality (Catalog.find_exn cat "feature"));
        check Alcotest.int "qualifiers" 4
          (Relation.cardinality (Catalog.find_exn cat "qualifier"));
        check Alcotest.int "seqs" 2
          (Relation.cardinality (Catalog.find_exn cat "genbank_seq")));
    Alcotest.test_case "render/parse roundtrip" `Quick (fun () ->
        let rs =
          [ { Genbank.locus = "KIN1HS"; definition = "alpha kinase";
              accession = "AB123456"; organism = "Homo sapiens";
              features =
                [ { Genbank.key = "CDS"; location = "1..12";
                    qualifiers = [ ("gene", "KIN1"); ("pseudo", "") ] } ];
              origin = "atggcgatcgat" };
            { Genbank.locus = "TRP9"; definition = "transporter";
              accession = "CD900210"; organism = "Mus musculus"; features = [];
              origin = "acgt" } ]
        in
        let cat = Genbank.parse (Genbank.render rs) in
        check Alcotest.(list (list string)) "entries"
          [ [ "1"; "AB123456"; "KIN1HS"; "alpha kinase"; "Homo sapiens" ];
            [ "2"; "CD900210"; "TRP9"; "transporter"; "Mus musculus" ] ]
          (rows cat "entry");
        check Alcotest.(list (list string)) "features"
          [ [ "1"; "1"; "CDS"; "1..12" ] ] (rows cat "feature");
        check Alcotest.(list (list string)) "qualifiers"
          [ [ "1"; "1"; "gene"; "KIN1" ]; [ "2"; "1"; "pseudo"; "" ] ]
          (rows cat "qualifier");
        check Alcotest.(list string) "sequences" [ "ATGGCGATCGAT"; "ACGT" ]
          (col cat "genbank_seq" "sequence"));
    Alcotest.test_case "sniffed" `Quick (fun () ->
        check Alcotest.bool "genbank" true
          (imported genbank_sample
          = Some (Catalog.relation_names (Genbank.parse genbank_sample))));
    Alcotest.test_case "discovery finds entry as primary" `Quick (fun () ->
        (* needs a few more records so uniqueness probing is meaningful *)
        let more =
          List.init 6 (fun i ->
              { Genbank.locus = Printf.sprintf "L%dX" i;
                definition =
                  String.concat " " (List.init (1 + (i mod 5)) (fun _ -> "word"));
                accession = Printf.sprintf "GB%04d%d" (1000 + (i * 37)) i;
                organism = "Mus musculus";
                features =
                  [ { Genbank.key = "CDS"; location = "1..9";
                      qualifiers = [ ("db_xref", Printf.sprintf "X:%d" i) ] } ];
                origin = String.concat "" (List.init (3 + i) (fun _ -> "acgt")) })
        in
        let doc = genbank_sample ^ Genbank.render more in
        let cat = Genbank.parse doc in
        let sp = Aladin_discovery.Source_profile.analyze cat in
        check
          Alcotest.(option (pair string string))
          "entry.accession"
          (Some ("entry", "accession"))
          (Aladin_discovery.Source_profile.primary_accession sp);
        (* qualifiers sit two FK hops below entry and still get owners *)
        let om =
          match
            Aladin_links.Profile_list.entries
              (Aladin_links.Profile_list.of_profiles [ sp ])
          with
          | [ e ] -> e.owner
          | _ -> Alcotest.fail "one entry expected"
        in
        check Alcotest.bool "qualifier rows owned" true
          ((Aladin_links.Owner_map.row_owners om ~relation:"qualifier").(0) <> []));
  ]

let embl_sample =
  "ID   HSKIN1; SV 1; linear; mRNA; STD; HUM; 60 BP.\n\
   AC   X51234;\n\
   DE   Human alpha kinase mRNA\n\
   OS   Homo sapiens.\n\
   FT   source          1..60\n\
   FT                   /organism=\"Homo sapiens\"\n\
   FT   CDS             1..60\n\
   FT                   /gene=\"KIN1\"\n\
   FT                   /db_xref=\"UniProt:P12345\"\n\
   SQ   Sequence 60 BP;\n\
   \     atggcgatcg atcgatcgta atggcgatcg atcgatcgta atggcgatcg atcgatcgta\n\
   //\n\
   ID   SCTRP9; SV 2; linear; mRNA; STD; FUN; 30 BP.\n\
   AC   Y00021;\n\
   DE   Yeast transporter fragment\n\
   OS   Saccharomyces cerevisiae.\n\
   SQ   Sequence 30 BP;\n\
   \     acgtacgtac gtacgtacgt acgtacgtac\n\
   //\n"

let embl_tests =
  [
    Alcotest.test_case "records parsed" `Quick (fun () ->
        let cat = Embl.parse embl_sample in
        match rows cat "entry" with
        | [ [ _; acc; locus; _; org ]; _ ] ->
            check Alcotest.string "locus" "HSKIN1" locus;
            check Alcotest.string "accession" "X51234" acc;
            check Alcotest.string "organism" "Homo sapiens" org;
            check Alcotest.(list string) "features of the first entry only"
              [ "1"; "1" ] (col cat "feature" "entry_id");
            (match col cat "embl_seq" "sequence" with
            | seq :: _ -> check Alcotest.int "seq" 60 (String.length seq)
            | [] -> Alcotest.fail "no sequence")
        | rs -> Alcotest.fail (Printf.sprintf "%d records" (List.length rs)));
    Alcotest.test_case "qualifiers" `Quick (fun () ->
        let cat = Embl.parse embl_sample in
        match List.rev (rows cat "feature") with
        | (fid :: _) :: _ ->
            check Alcotest.(list (pair string string)) "quals"
              [ ("gene", "KIN1"); ("db_xref", "UniProt:P12345") ]
              (List.filter_map
                 (function
                   | [ _; f; k; v ] when f = fid -> Some (k, v) | _ -> None)
                 (rows cat "qualifier"))
        | _ -> Alcotest.fail "no features");
    Alcotest.test_case "catalog shape" `Quick (fun () ->
        let cat = Embl.parse embl_sample in
        check Alcotest.int "entries" 2
          (Relation.cardinality (Catalog.find_exn cat "entry"));
        check Alcotest.int "qualifiers" 3
          (Relation.cardinality (Catalog.find_exn cat "qualifier"));
        check Alcotest.int "seqs" 2
          (Relation.cardinality (Catalog.find_exn cat "embl_seq")));
    Alcotest.test_case "render/parse roundtrip" `Quick (fun () ->
        let rs =
          [ { Genbank.locus = "HSKIN1"; definition = "Human alpha kinase mRNA";
              accession = "X51234"; organism = "Homo sapiens";
              features =
                [ { Genbank.key = "CDS"; location = "1..12";
                    qualifiers = [ ("gene", "KIN1") ] } ];
              origin = "atggcgatcgat" } ]
        in
        let cat = Embl.parse (Embl.render rs) in
        check Alcotest.(list (list string)) "entries"
          [ [ "1"; "X51234"; "HSKIN1"; "Human alpha kinase mRNA"; "Homo sapiens" ] ]
          (rows cat "entry");
        check Alcotest.(list (list string)) "qualifiers"
          [ [ "1"; "1"; "gene"; "KIN1" ] ] (rows cat "qualifier");
        check Alcotest.(list string) "sequence" [ "ATGGCGATCGAT" ]
          (col cat "embl_seq" "sequence"));
    Alcotest.test_case "sniffed as embl, not swissprot" `Quick (fun () ->
        check Alcotest.bool "embl" true
          (imported embl_sample
          = Some (Catalog.relation_names (Embl.parse embl_sample)));
        check Alcotest.bool "swissprot unchanged" true
          (imported sample_swissprot
          = Some (Catalog.relation_names (Swissprot.parse sample_swissprot))));
  ]

let rec text_content = function
  | Xml.Text s -> s
  | Xml.Element { children; _ } -> String.concat "" (List.map text_content children)

let children_named tag = function
  | Xml.Text _ -> []
  | Xml.Element { children; _ } ->
      List.filter
        (function Xml.Element { tag = t; _ } -> t = tag | Xml.Text _ -> false)
        children

let xml_tests =
  [
    Alcotest.test_case "parse nested" `Quick (fun () ->
        match Xml.parse "<a x='1'><b>hello</b><b>world</b></a>" with
        | Xml.Element { tag = "a"; attrs = [ ("x", "1") ]; children } ->
            check Alcotest.int "children" 2 (List.length children)
        | _ -> Alcotest.fail "bad parse");
    Alcotest.test_case "entities decoded" `Quick (fun () ->
        let n = Xml.parse "<a>x &amp; y &lt;z&gt;</a>" in
        check Alcotest.string "text" "x & y <z>" (text_content n));
    Alcotest.test_case "cdata" `Quick (fun () ->
        let n = Xml.parse "<a><![CDATA[1 < 2 & 3]]></a>" in
        check Alcotest.string "raw" "1 < 2 & 3" (text_content n));
    Alcotest.test_case "comments and pi skipped" `Quick (fun () ->
        let n = Xml.parse "<?xml version='1.0'?><!-- hi --><a><!-- in --><b/></a>" in
        check Alcotest.int "one child" 1 (List.length (children_named "b" n)));
    Alcotest.test_case "self-closing" `Quick (fun () ->
        match Xml.parse "<a><b attr=\"v\"/></a>" with
        | n -> (
            match children_named "b" n with
            | [ Xml.Element { attrs; _ } ] ->
                check Alcotest.(option string) "attr" (Some "v")
                  (List.assoc_opt "attr" attrs)
            | _ -> Alcotest.fail "no b"));
    Alcotest.test_case "mismatched tag raises" `Quick (fun () ->
        match Xml.parse "<a><b></a></b>" with
        | exception Xml.Parse_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "render escapes" `Quick (fun () ->
        let n = Xml.Element { tag = "a"; attrs = [ ("k", "v&w") ]; children = [ Xml.Text "<x>" ] } in
        check Alcotest.string "rendered" "<a k=\"v&amp;w\">&lt;x&gt;</a>" (Xml.render n));
    Alcotest.test_case "render/parse stable" `Quick (fun () ->
        let doc = "<root><item id=\"1\">alpha</item><item id=\"2\">beta</item></root>" in
        let n = Xml.parse doc in
        check Alcotest.string "stable" doc (Xml.render (Xml.parse (Xml.render n))));
  ]

let xml_shred_tests =
  [
    Alcotest.test_case "tables per tag" `Quick (fun () ->
        let cat =
          Xml_shred.shred_string
            "<db><prot id=\"P1\"><name>alpha</name></prot><prot id=\"P2\"/></db>"
        in
        check Alcotest.(list string) "tables" [ "db"; "prot"; "name" ]
          (Catalog.relation_names cat);
        check Alcotest.int "prots" 2
          (Relation.cardinality (Catalog.find_exn cat "prot")));
    Alcotest.test_case "parent ids" `Quick (fun () ->
        let cat = Xml_shred.shred_string "<db><prot id=\"P1\"/></db>" in
        let prot = Catalog.find_exn cat "prot" in
        check Alcotest.bool "parent is db" true
          ((Relation.column prot "parent_id").(0) = Value.Int 1);
        let db = Catalog.find_exn cat "db" in
        check Alcotest.bool "root parent null" true
          (Value.is_null ((Relation.column db "parent_id").(0))));
    Alcotest.test_case "attribute columns unioned" `Quick (fun () ->
        let cat =
          Xml_shred.shred_string "<r><e a=\"1\"/><e b=\"2\"/></r>"
        in
        let e = Catalog.find_exn cat "e" in
        check Alcotest.bool "has a" true (Schema.mem (Relation.schema e) "a");
        check Alcotest.bool "has b" true (Schema.mem (Relation.schema e) "b"));
    Alcotest.test_case "content column" `Quick (fun () ->
        let cat = Xml_shred.shred_string "<r><e>some text</e></r>" in
        let e = Catalog.find_exn cat "e" in
        check Alcotest.bool "text" true
          ((Relation.column e "content").(0) = Value.Text "some text"));
  ]

let dump_tests =
  [
    Alcotest.test_case "constraints roundtrip" `Quick (fun () ->
        let cs =
          [ Constraint_def.Unique { relation = "t"; attribute = "a" };
            Constraint_def.Primary_key { relation = "t"; attribute = "b" };
            Constraint_def.Foreign_key
              { src_relation = "u"; src_attribute = "x"; dst_relation = "t";
                dst_attribute = "b" } ]
        in
        let cat = Catalog.create ~name:"s" in
        ignore (Catalog.create_relation cat ~name:"t" (Schema.of_names [ "a"; "b" ]));
        ignore (Catalog.create_relation cat ~name:"u" (Schema.of_names [ "x" ]));
        List.iter (Catalog.declare cat) cs;
        let dir = Tmp.path "dump" in
        (match Dump.save_dir cat dir with
        | Ok () -> ()
        | Error msg -> Alcotest.fail ("save_dir: " ^ msg));
        let cat2, errs = Dump.load_dir ~name:"s" dir in
        check Alcotest.int "no report" 0 (List.length errs);
        check Alcotest.bool "roundtrip" true (Catalog.constraints cat2 = cs));
    Alcotest.test_case "comments skipped" `Quick (fun () ->
        let cat, errs =
          Dump.catalog_of_members ~name:"s"
            [ ("t.csv", "a\n1\n"); ("constraints.txt", "# a comment\n\n") ]
        in
        check Alcotest.bool "none" true (Catalog.constraints cat = [] && errs = []));
    Alcotest.test_case "bad line reported, not raised" `Quick (fun () ->
        match
          Dump.catalog_of_members ~name:"s"
            [ ("t.csv", "a\n1\n");
              ("constraints.txt", "nonsense line here extra tokens yes") ]
        with
        | cat, [ e ] ->
            check Alcotest.int "no constraint" 0 (List.length (Catalog.constraints cat));
            check Alcotest.int "line" 1 e.index;
            check Alcotest.bool "reason" true
              (Aladin_text.Strdist.contains ~needle:"constraint" e.reason)
        | _ -> Alcotest.fail "expected one reported bad line");
    Alcotest.test_case "load from strings" `Quick (fun () ->
        let cat = fst (Dump.catalog_of_members ~name:"s" [ ("t.csv", "a,b\n1,x\n2,y\n") ]) in
        check Alcotest.int "rows" 2 (Relation.cardinality (Catalog.find_exn cat "t")));
    Alcotest.test_case "save/load dir" `Quick (fun () ->
        let dir = Tmp.path "dump" in
        let cat = fst (Dump.catalog_of_members ~name:"s" [ ("t.csv", "a,b\n1,x\n") ]) in
        Catalog.declare cat (Constraint_def.Unique { relation = "t"; attribute = "a" });
        (match Dump.save_dir cat dir with
        | Ok () -> ()
        | Error msg -> Alcotest.fail ("save_dir: " ^ msg));
        let cat2, errs = Dump.load_dir ~name:"s2" dir in
        check Alcotest.int "no report" 0 (List.length errs);
        check Alcotest.int "rows" 1 (Relation.cardinality (Catalog.find_exn cat2 "t"));
        check Alcotest.int "constraints" 1 (List.length (Catalog.constraints cat2)));
  ]

let import_tests =
  [
    Alcotest.test_case "sniff formats" `Quick (fun () ->
        let names cat = Some (Catalog.relation_names cat) in
        let fasta = ">X1 d\nACGT\n" in
        check Alcotest.bool "fasta" true (imported fasta = names (Fasta.parse fasta));
        check Alcotest.bool "xml" true
          (imported "<a/>" = names (Xml_shred.shred_string "<a/>"));
        check Alcotest.bool "obo" true (imported obo_sample = names (Obo.parse obo_sample));
        check Alcotest.bool "pdb" true
          (imported pdb_sample = names (Pdb_flat.parse pdb_sample));
        check Alcotest.bool "swissprot" true
          (imported sample_swissprot = names (Swissprot.parse sample_swissprot));
        check Alcotest.bool "csv" true
          (imported "a,b\n1,2\n"
          = names (fst (Dump.catalog_of_members ~name:"x" [ ("x.csv", "a,b\n1,2\n") ])));
        check Alcotest.bool "unknown" true (imported "" = None));
    Alcotest.test_case "import_string dispatches" `Quick (fun () ->
        match Import.import_string ~name:"x" ">A d\nACGT\n" with
        | Ok im ->
            check Alcotest.bool "entry table" true ((Catalog.find im.catalog "entry" <> None));
            check Alcotest.int "no record errors" 0
              (List.length im.record_errors)
        | Error e -> Alcotest.fail (Import.Import_error.to_string e));
    Alcotest.test_case "unsniffable is a typed error" `Quick (fun () ->
        match Import.import_string ~name:"x" "" with
        | Error e ->
            check Alcotest.bool "unrecognized" true
              (e.kind = Import.Import_error.Unrecognized)
        | Ok _ -> Alcotest.fail "no error");
  ]

let all_tests () =
  [
    ("formats.line_format", line_format_tests);
    ("formats.swissprot", swissprot_tests);
    ("formats.fasta", fasta_tests);
    ("formats.genbank", genbank_tests);
    ("formats.embl", embl_tests);
    ("formats.obo", obo_tests);
    ("formats.pdb_flat", pdb_tests);
    ("formats.xml", xml_tests);
    ("formats.xml_shred", xml_shred_tests);
    ("formats.dump", dump_tests);
    ("formats.import", import_tests);
  ]

let embl_discovery_tests =
  [
    Alcotest.test_case "discovery on an EMBL source" `Quick (fun () ->
        (* pad with generated records so uniqueness probing is meaningful *)
        let more =
          List.init 6 (fun i ->
              { Genbank.locus = Printf.sprintf "LOC%d" i;
                definition =
                  String.concat " " (List.init (1 + (i mod 5)) (fun _ -> "word"));
                accession = Printf.sprintf "EM%04d%d" (2000 + (i * 41)) i;
                organism = "Mus musculus";
                features =
                  [ { Genbank.key = "CDS"; location = "1..9";
                      qualifiers = [ ("db_xref", Printf.sprintf "Y:%d" i) ] } ];
                origin = String.concat "" (List.init (3 + i) (fun _ -> "acgt")) })
        in
        let doc = embl_sample ^ Embl.render more in
        let sp = Aladin_discovery.Source_profile.analyze (Embl.parse doc) in
        check
          Alcotest.(option (pair string string))
          "entry.accession"
          (Some ("entry", "accession"))
          (Aladin_discovery.Source_profile.primary_accession sp));
  ]

let tests = all_tests () @ [ ("formats.embl_discovery", embl_discovery_tests) ]
