open Aladin_seq

let check = Alcotest.check

let alphabet_tests =
  [
    Alcotest.test_case "classify dna" `Quick (fun () ->
        check Alcotest.bool "dna" true
          (Alphabet.classify "ACGTACGTACGT" = Some Alphabet.Dna));
    Alcotest.test_case "classify rna" `Quick (fun () ->
        check Alcotest.bool "rna" true
          (Alphabet.classify "ACGUACGUACGU" = Some Alphabet.Rna));
    Alcotest.test_case "classify protein" `Quick (fun () ->
        check Alcotest.bool "protein" true
          (Alphabet.classify "MKWVTFISLLFL" = Some Alphabet.Protein));
    Alcotest.test_case "short string is not a sequence" `Quick (fun () ->
        check Alcotest.bool "CAT" true (Alphabet.classify "CAT" = None));
    Alcotest.test_case "plain text is not a sequence" `Quick (fun () ->
        check Alcotest.bool "text" true (Alphabet.classify "hello world 123" = None));
    Alcotest.test_case "normalize strips and uppercases" `Quick (fun () ->
        check Alcotest.string "norm" "ACGT" (Alphabet.normalize " ac\ngt "));
    Alcotest.test_case "classify_column majority" `Quick (fun () ->
        let col = [ "ACGTACGTACGTA"; "TTTTAAAACCCCG"; "not a sequence at all!" ] in
        check Alcotest.bool "none at 0.9" true (Alphabet.classify_column col = None);
        check Alcotest.bool "dna at 0.6" true
          (Alphabet.classify_column ~min_frac:0.6 col = Some Alphabet.Dna));
    Alcotest.test_case "classify_column empty" `Quick (fun () ->
        check Alcotest.bool "none" true (Alphabet.classify_column [ ""; " " ] = None));
    Alcotest.test_case "gc_content" `Quick (fun () ->
        check (Alcotest.float 0.001) "half" 0.5 (Alphabet.gc_content "ACGT");
        check (Alcotest.float 0.001) "zero" 0.0 (Alphabet.gc_content ""));
    Alcotest.test_case "reverse_complement" `Quick (fun () ->
        check Alcotest.string "rc" "CGAT" (Alphabet.reverse_complement "ATCG"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"revcomp involution" ~count:100
         QCheck.(string_gen_of_size (QCheck.Gen.int_range 1 50)
                   (QCheck.Gen.oneofl [ 'A'; 'C'; 'G'; 'T' ]))
         (fun s ->
           Alphabet.reverse_complement (Alphabet.reverse_complement s) = s));
  ]

let subst_tests =
  [
    Alcotest.test_case "nucleotide scores" `Quick (fun () ->
        check Alcotest.int "match" 5 (Subst_matrix.score Subst_matrix.nucleotide 'A' 'a');
        check Alcotest.int "mismatch" (-4)
          (Subst_matrix.score Subst_matrix.nucleotide 'A' 'C'));
    Alcotest.test_case "blosum62 known values" `Quick (fun () ->
        check Alcotest.int "W-W" 11 (Subst_matrix.score Subst_matrix.blosum62 'W' 'W');
        check Alcotest.int "A-A" 4 (Subst_matrix.score Subst_matrix.blosum62 'A' 'A');
        check Alcotest.int "A-R" (-1) (Subst_matrix.score Subst_matrix.blosum62 'A' 'R');
        check Alcotest.int "unknown" (-4) (Subst_matrix.score Subst_matrix.blosum62 'X' 'A'));
    Alcotest.test_case "blosum62 diagonal positive" `Quick (fun () ->
        String.iter
          (fun c ->
            if Subst_matrix.score Subst_matrix.blosum62 c c <= 0 then
              Alcotest.fail (Printf.sprintf "diag %c" c))
          "ACDEFGHIKLMNPQRSTVWY");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"blosum62 symmetric" ~count:100
         QCheck.(pair (oneofl [ 'A'; 'R'; 'N'; 'D'; 'C'; 'W'; 'Y'; 'V' ])
                   (oneofl [ 'A'; 'R'; 'N'; 'D'; 'C'; 'W'; 'Y'; 'V' ]))
         (fun (a, b) ->
           Subst_matrix.score Subst_matrix.blosum62 a b
           = Subst_matrix.score Subst_matrix.blosum62 b a));
  ]

(* protein pairs for the score kernel: every BLOSUM62 letter plus X, B
   and * (off-matrix bytes), length 1 often, equal lengths often *)
let protein_pair =
  let open QCheck.Gen in
  let letters = List.of_seq (String.to_seq (Alphabet.protein ^ "XB*")) in
  let len = frequency [ (1, return 1); (4, int_range 1 24) ] in
  let str n = string_size ~gen:(oneofl letters) (return n) in
  let gen =
    len >>= fun n ->
    frequency [ (1, return n); (2, len) ] >>= fun m -> pair (str n) (str m)
  in
  QCheck.make ~print:QCheck.Print.(pair string string) gen

let align_tests =
  [
    Alcotest.test_case "global identical" `Quick (fun () ->
        let r = Align.global "ACGT" "ACGT" in
        check Alcotest.int "score" 20 r.score;
        check (Alcotest.float 0.001) "identity" 1.0 r.identity);
    Alcotest.test_case "global with gap" `Quick (fun () ->
        let r = Align.global ~gap:(-8) "ACGT" "AGT" in
        check Alcotest.int "score" (15 - 8) r.score;
        check Alcotest.string "q" "ACGT" r.query_aligned;
        check Alcotest.string "s" "A-GT" r.subject_aligned);
    Alcotest.test_case "local finds motif" `Quick (fun () ->
        let r = Align.local "TTTTACGTACGTTTTT" "ACGTACGT" in
        check Alcotest.int "score" 40 r.score;
        check (Alcotest.float 0.001) "identity" 1.0 r.identity);
    Alcotest.test_case "local never negative" `Quick (fun () ->
        let r = Align.local "AAAA" "CCCC" in
        check Alcotest.bool "non-neg" true (r.score >= 0));
    Alcotest.test_case "local span" `Quick (fun () ->
        let r = Align.local "TTACGTTT" "ACG" in
        let qs, qe = r.query_span in
        check Alcotest.int "start" 2 qs;
        check Alcotest.int "end" 5 qe);
    Alcotest.test_case "empty inputs" `Quick (fun () ->
        let r = Align.global "" "" in
        check Alcotest.int "score" 0 r.score;
        check (Alcotest.float 0.001) "identity" 0.0 r.identity);
    Alcotest.test_case "normalized 1.0 identical" `Quick (fun () ->
        let q = "ACGTACGTAC" in
        let r = Align.local q q in
        check (Alcotest.float 0.001) "norm" 1.0
          (Align.normalized_score r ~query:q ~subject:q));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"local_score matches traceback score" ~count:50
         QCheck.(pair
                   (string_gen_of_size (QCheck.Gen.int_range 1 20)
                      (QCheck.Gen.oneofl [ 'A'; 'C'; 'G'; 'T' ]))
                   (string_gen_of_size (QCheck.Gen.int_range 1 20)
                      (QCheck.Gen.oneofl [ 'A'; 'C'; 'G'; 'T' ])))
         (fun (a, b) -> Align.local_score a b = (Align.local a b).score));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"local symmetric score" ~count:50
         QCheck.(pair
                   (string_gen_of_size (QCheck.Gen.int_range 1 15)
                      (QCheck.Gen.oneofl [ 'A'; 'C'; 'G'; 'T' ]))
                   (string_gen_of_size (QCheck.Gen.int_range 1 15)
                      (QCheck.Gen.oneofl [ 'A'; 'C'; 'G'; 'T' ])))
         (fun (a, b) -> Align.local_score a b = Align.local_score b a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"blosum62 local_score matches traceback, symmetric" ~count:300
         protein_pair
         (fun (a, b) ->
           let matrix = Subst_matrix.blosum62 in
           let score = Align.local_score ~matrix a b in
           score = (Align.local ~matrix a b).score
           && score = Align.local_score ~matrix b a));
  ]

let kmer_tests =
  [
    Alcotest.test_case "kmers_of" `Quick (fun () ->
        check Alcotest.(list string) "3mers" [ "ACG"; "CGT"; "GTA" ]
          (Kmer_index.kmers_of ~k:3 "ACGTA"));
    Alcotest.test_case "kmers_of short" `Quick (fun () ->
        check Alcotest.(list string) "none" [] (Kmer_index.kmers_of ~k:5 "ACG"));
    Alcotest.test_case "bad k raises" `Quick (fun () ->
        Alcotest.check_raises "k" (Invalid_argument "Kmer_index.create: k must be >= 1")
          (fun () -> ignore (Kmer_index.create ~k:0)));
    Alcotest.test_case "candidates ranked" `Quick (fun () ->
        let idx = Kmer_index.create ~k:3 in
        Kmer_index.add idx ~id:"close" "ACGTACGT";
        Kmer_index.add idx ~id:"far" "TTTTTTTT";
        (match Kmer_index.candidates idx "ACGTACGT" with
        | (best, _) :: _ -> check Alcotest.string "best" "close" best
        | [] -> Alcotest.fail "no candidates"));
    Alcotest.test_case "min_hits filters" `Quick (fun () ->
        let idx = Kmer_index.create ~k:3 in
        Kmer_index.add idx ~id:"one" "ACGTTTTT";
        check Alcotest.int "filtered" 0
          (List.length (Kmer_index.candidates idx ~min_hits:5 "ACGAAAAA")));
    Alcotest.test_case "sequence lookup" `Quick (fun () ->
        let idx = Kmer_index.create ~k:3 in
        Kmer_index.add idx ~id:"x" "acgt";
        check Alcotest.(option string) "normalized" (Some "ACGT")
          (Kmer_index.sequence idx "x");
        check Alcotest.int "size" 1 (Kmer_index.size idx));
  ]

let homology_tests =
  [
    Alcotest.test_case "finds mutated homolog" `Quick (fun () ->
        let t = Homology.create Alphabet.Dna in
        let base = "ACGTACGGTACCATGGCATCGATCGGCTAGCTAGGCT" in
        let mutated = "ACGTACGGTACCATGGCTTCGATCGGCTAGCTAGGCT" in
        Homology.add t ~id:"a" base;
        Homology.add t ~id:"b" mutated;
        Homology.add t ~id:"c" "TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT";
        (match Homology.search t ~query_id:"a" base ~min_normalized:0.5 with
        | [ hit ] ->
            check Alcotest.string "subject" "b" hit.subject_id;
            check Alcotest.bool "norm" true (hit.normalized > 0.8)
        | hits -> Alcotest.fail (Printf.sprintf "%d hits" (List.length hits))));
    Alcotest.test_case "self excluded" `Quick (fun () ->
        let t = Homology.create Alphabet.Dna in
        Homology.add t ~id:"a" "ACGTACGTACGTACGTACGT";
        check Alcotest.int "no hits" 0
          (List.length
             (Homology.search t ~query_id:"a" "ACGTACGTACGTACGTACGT"
                ~min_normalized:0.1)));
    Alcotest.test_case "all_pairs canonical" `Quick (fun () ->
        let t = Homology.create Alphabet.Dna in
        let s = "ACGGATTACAGGCATCGATCG" in
        Homology.add t ~id:"a" s;
        Homology.add t ~id:"b" s;
        (match Homology.all_pairs t ~min_normalized:0.9 with
        | [ hit ] ->
            check Alcotest.string "q" "a" hit.query_id;
            check Alcotest.string "s" "b" hit.subject_id
        | hits -> Alcotest.fail (Printf.sprintf "%d pairs" (List.length hits))));
    Alcotest.test_case "threshold excludes weak" `Quick (fun () ->
        let t = Homology.create Alphabet.Dna in
        Homology.add t ~id:"a" "ACGTAACCGGTTACGTACGTA";
        Homology.add t ~id:"b" "ACGTATTTTTTTTTTTTTTTT";
        let weak = Homology.search t ~query_id:"a" "ACGTAACCGGTTACGTACGTA" ~min_normalized:0.9 in
        check Alcotest.int "no strong hit" 0 (List.length weak));
    Alcotest.test_case "all_pairs keeps each search's orientation" `Quick
      (fun () ->
        (* equal-length pairs with different self-scores: on tied lengths
           the normalized score divides by the query's self-score, so a
           pair aligned from the wrong side would change its hit *)
        let base = "MKWVTFISLLFLFSSAYSRGVFRRDAHKSE" in
        let seqs =
          [ ("a", base);
            ("b", "MKAVTFISLLFLFSSAYSRGVFRRDAHKSE");
            ("c", "MKWVTFISLLFLFWWAYSRGVFRRDAHKSE");
            ("d", "MKWVTFISLLFLFSSAYSRGVFRR");
            ("e", "MKWVTFISLLFLFSSAYSRGVFRRDAHKSECC");
            ("f", "PPPPGGGGDDDDEEEENNNNQQQQHHHHRR") ]
        in
        let t = Homology.create Alphabet.Protein in
        List.iter (fun (id, s) -> Homology.add t ~id s) seqs;
        let show (h : Homology.hit) =
          Printf.sprintf "%s>%s raw=%d norm=%h kmers=%d" h.query_id
            h.subject_id h.raw_score h.normalized h.shared_kmers
        in
        let expected =
          List.concat_map
            (fun (id, s) ->
              Homology.search t ~query_id:id s ~min_normalized:0.3
              |> List.filter (fun (h : Homology.hit) ->
                     h.query_id < h.subject_id))
            seqs
        in
        check Alcotest.(list string) "all_pairs = filtered searches"
          (List.map show expected)
          (List.map show (Homology.all_pairs t ~min_normalized:0.3));
        let self = Align.self_score Subst_matrix.blosum62 in
        match
          List.find_opt
            (fun (h : Homology.hit) -> h.query_id = "a" && h.subject_id = "c")
            expected
        with
        | Some h ->
            check Alcotest.bool "self-scores differ" true
              (self base <> self (List.assoc "c" seqs));
            check (Alcotest.float 0.0) "query's self-score"
              (float_of_int h.raw_score /. float_of_int (self base))
              h.normalized
        | None -> Alcotest.fail "no a>c hit");
    Alcotest.test_case "protein homology" `Quick (fun () ->
        let t = Homology.create Alphabet.Protein in
        let s = "MKWVTFISLLFLFSSAYSRGVFRRDAH" in
        Homology.add t ~id:"p1" s;
        Homology.add t ~id:"p2" (s ^ "KSEVAH");
        check Alcotest.bool "found" true
          (Homology.search t ~query_id:"p1" s ~min_normalized:0.5 <> []));
  ]

let tests =
  [
    ("seq.alphabet", alphabet_tests);
    ("seq.subst_matrix", subst_tests);
    ("seq.align", align_tests);
    ("seq.kmer_index", kmer_tests);
    ("seq.homology", homology_tests);
  ]
