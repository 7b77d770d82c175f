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
        check Alcotest.bool "none at 2 of 3" true (Alphabet.classify_column col = None);
        (* 90% of the non-empty values must agree; whitespace-only
           values are empty *)
        let dna = "ACGTACGTACGT" and rna = "ACGUACGUACGU" in
        let nine = List.init 9 (fun _ -> dna) in
        check Alcotest.bool "dna at 9 of 10" true
          (Alphabet.classify_column (rna :: nine) = Some Alphabet.Dna);
        check Alcotest.bool "none at 8 of 10" true
          (Alphabet.classify_column (rna :: rna :: List.tl nine) = None);
        check Alcotest.bool "blank values not counted" true
          (Alphabet.classify_column ("  \n" :: rna :: nine) = Some Alphabet.Dna));
    Alcotest.test_case "classify_column empty" `Quick (fun () ->
        check Alcotest.bool "none" true (Alphabet.classify_column [ ""; " " ] = None));
  ]

(* Textbook definitions of normalization and classification, against
   which the single-pass [Alphabet] functions are checked. *)
let rna = "ACGU"

let ref_normalize s =
  String.concat ""
    (List.filter_map
       (fun c ->
         if String.contains " \t\n\r" c then None
         else Some (String.make 1 (Char.uppercase_ascii c)))
       (List.of_seq (String.to_seq s)))

let ref_is_over alphabet s =
  let s = ref_normalize s in
  s <> "" && String.for_all (fun c -> String.contains alphabet c) s

let ref_classify ~min_len s =
  if String.length (ref_normalize s) < min_len then None
  else if ref_is_over Alphabet.dna s then Some Alphabet.Dna
  else if ref_is_over rna s then Some Alphabet.Rna
  else if ref_is_over Alphabet.protein s then Some Alphabet.Protein
  else None

let ref_classify_column ~min_len ~min_frac values =
  let nonempty = List.filter (fun v -> ref_normalize v <> "") values in
  let count k =
    List.length
      (List.filter (fun v -> ref_classify ~min_len v = Some k) nonempty)
  in
  (* the most frequent kind; the earlier one in DNA, RNA, protein order
     on ties *)
  let best =
    List.fold_left
      (fun b k -> if count k > count b then k else b)
      Alphabet.Dna [ Alphabet.Rna; Alphabet.Protein ]
  in
  if
    nonempty <> []
    && float_of_int (count best)
       >= min_frac *. float_of_int (List.length nonempty)
  then Some best
  else None

(* values drawn from one kind's letters or from every kind's letters
   plus junk bytes, in either case and with whitespace mixed in;
   whitespace-only and empty values are frequent *)
let alphabet_value =
  let open QCheck.Gen in
  let from letters =
    int_range 0 24 >>= fun n ->
    string_size (return n)
      ~gen:
        (frequency
           [ ( 8,
               oneofl letters >>= fun c ->
               oneofl [ c; Char.lowercase_ascii c ] );
             (1, oneofl [ ' '; '\t'; '\n'; '\r' ]) ])
  in
  let chars s = List.of_seq (String.to_seq s) in
  frequency
    [ (3, from (chars Alphabet.dna)); (2, from (chars rna));
      (2, from (chars Alphabet.protein));
      (1, from (chars (Alphabet.dna ^ "U" ^ Alphabet.protein ^ "XB*1-.")));
      (1, string_size (int_range 0 4) ~gen:(oneofl [ ' '; '\t'; '\n'; '\r' ]));
      (1, return "") ]

let classify_props =
  let show_kind = function
    | None -> "none"
    | Some Alphabet.Dna -> "dna"
    | Some Alphabet.Rna -> "rna"
    | Some Alphabet.Protein -> "protein"
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"classify and is_over match the definitions"
         ~count:500
         QCheck.(
           make
             ~print:Print.(pair int string)
             Gen.(pair (int_range 0 14) alphabet_value))
         (fun (min_len, v) ->
           Alphabet.classify ~min_len v = ref_classify ~min_len v
           && List.for_all
                (fun a -> Alphabet.is_over ~alphabet:a v = ref_is_over a v)
                [ Alphabet.dna; rna; Alphabet.protein ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"classify_column matches the definition"
         ~count:500
         QCheck.(
           make
             ~print:
               Print.(
                 pair int (fun vs ->
                     String.concat " | " (List.map String.escaped vs)))
             Gen.(pair (int_range 0 14) (list_size (int_range 0 8) alphabet_value)))
         (fun (min_len, values) ->
           let actual = Alphabet.classify_column ~min_len values
           and expected = ref_classify_column ~min_len ~min_frac:0.9 values in
           if actual <> expected then
             QCheck.Test.fail_reportf "expected %s, got %s" (show_kind expected)
               (show_kind actual);
           true));
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

(* nucleotide-matrix inputs over arbitrary bytes: mostly ACGT in both
   cases, N and '-', empty and length-1 strings among them *)
let nucleotide_pair =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (8, oneofl [ 'A'; 'C'; 'G'; 'T'; 'a'; 'c'; 'g'; 't'; 'N'; '-' ]);
        (1, char) ]
  in
  let len = frequency [ (1, return 0); (2, return 1); (6, int_range 2 24) ] in
  let str = string_size ~gen:byte len in
  QCheck.make ~print:QCheck.Print.(pair string string) (pair str str)

(* two related proteins of 300+ residues, fixed by the seed *)
let long_proteins () =
  let st = Random.State.make [| 19 |] in
  let residue () = Alphabet.protein.[Random.State.int st 20] in
  let a = String.init 320 (fun _ -> residue ()) in
  let b =
    String.concat ""
      (List.map
         (fun c ->
           match Random.State.int st 10 with
           | 0 -> ""
           | 1 -> String.make 1 (residue ())
           | 2 -> String.make 1 c ^ String.make 1 (residue ())
           | _ -> String.make 1 c)
         (List.of_seq (String.to_seq a)))
  in
  (a, b ^ String.init 30 (fun _ -> residue ()))

let align_tests =
  [
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
        let r = Align.local "" "" in
        check Alcotest.int "score" 0 r.score;
        check (Alcotest.float 0.001) "identity" 0.0 r.identity;
        check Alcotest.int "local_score" 0 (Align.local_score "" ""));
    Alcotest.test_case "normalized 1.0 identical" `Quick (fun () ->
        let q = "ACGTACGTAC" in
        (* a self-alignment scores its ungapped self score *)
        check Alcotest.int "norm" (Align.self_score Subst_matrix.nucleotide q)
          (Align.local_score q q));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"local_score matches traceback score" ~count:200
         nucleotide_pair
         (fun (a, b) -> Align.local_score a b = (Align.local a b).score));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"local symmetric score" ~count:200
         nucleotide_pair
         (fun (a, b) -> Align.local_score a b = Align.local_score b a));
    Alcotest.test_case "blosum62 local_score on 300+ residue proteins" `Quick
      (fun () ->
        let a, b = long_proteins () in
        let matrix = Subst_matrix.blosum62 in
        check Alcotest.bool "both 300+" true
          (String.length a >= 300 && String.length b >= 300);
        let score = Align.local_score ~matrix a b in
        check Alcotest.int "traceback score" (Align.local ~matrix a b).score score;
        check Alcotest.int "symmetric" score (Align.local_score ~matrix b a));
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

(* a probe with [keep] admitting every id; at threshold 0 every aligned
   candidate is a hit, so the hit ids are exactly the ids aligned *)
let aligned ix p =
  List.map
    (fun (h : Homology.probe_hit) -> h.id)
    (Homology.probe ix ~probe_is_query:true ~keep:(fun _ -> true) p
       ~min_normalized:0.0)

(* k-mer seeding of the probe index: k = 4 for proteins, 11 for DNA,
   and a candidate needs 2 distinct shared k-mers *)
let kmer_tests =
  [
    Alcotest.test_case "shorter than k gives no hits" `Quick (fun () ->
        let short = "ACGTACGTAC" and long = "ACGTACGTACGTACGTACGTAC" in
        let ix = Homology.probe_index Alphabet.Dna [| short; long |] in
        check Alcotest.(list int) "short probe" [] (aligned ix short);
        check Alcotest.(list int) "short indexed" [ 1 ] (aligned ix long));
    Alcotest.test_case "min_hits filters" `Quick (fun () ->
        let ix = Homology.probe_index Alphabet.Protein [| "MKWVTFISLL" |] in
        check Alcotest.(list int) "one shared k-mer is not aligned" []
          (aligned ix "MKWVGGGGGG");
        check Alcotest.(list int) "two are" [ 0 ] (aligned ix "MKWVTGGGGG"));
    Alcotest.test_case "a repeated k-mer counts once" `Quick (fun () ->
        (* MKWV is the one shared k-mer, repeated on both sides *)
        let ix = Homology.probe_index Alphabet.Protein [| "MKWVEMKWVE" |] in
        check Alcotest.(list int) "not aligned" [] (aligned ix "MKWVDMKWVD"));
  ]

let homology_tests =
  let base = "ACGTACGGTACCATGGCATCGATCGGCTAGCTAGGCT" in
  [
    Alcotest.test_case "finds mutated homolog" `Quick (fun () ->
        let mutated = "ACGTACGGTACCATGGCTTCGATCGGCTAGCTAGGCT" in
        let ix =
          Homology.probe_index Alphabet.Dna
            [| base; mutated; "TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT" |]
        in
        match
          Homology.probe ix ~probe_is_query:true ~keep:(fun id -> id <> 0) base
            ~min_normalized:0.5
        with
        | [ hit ] ->
            check Alcotest.int "subject" 1 hit.id;
            check Alcotest.bool "norm" true (hit.norm > 0.8)
        | hits -> Alcotest.fail (Printf.sprintf "%d hits" (List.length hits)));
    Alcotest.test_case "self excluded" `Quick (fun () ->
        let ix = Homology.probe_index Alphabet.Dna [| base |] in
        let hits keep =
          List.length
            (Homology.probe ix ~probe_is_query:true ~keep base
               ~min_normalized:0.1)
        in
        check Alcotest.int "kept" 1 (hits (fun _ -> true));
        check Alcotest.int "keep drops it" 0 (hits (fun id -> id <> 0)));
    Alcotest.test_case "threshold excludes weak" `Quick (fun () ->
        let ix =
          Homology.probe_index Alphabet.Dna
            [| "ACGTAACCGGTTACGTACGTA"; "ACGTATTTTTTTTTTTTTTTT" |]
        in
        check Alcotest.int "no strong hit" 0
          (List.length
             (Homology.probe ix ~probe_is_query:true ~keep:(fun id -> id <> 0)
                "ACGTAACCGGTTACGTACGTA" ~min_normalized:0.9)));
    Alcotest.test_case "tied-length orientation follows probe_is_query" `Quick
      (fun () ->
        (* an equal-length pair with different self-scores: on tied
           lengths the normalized score divides by the query's
           self-score, so the two orientations give different hits *)
        let a = "MKWVTFISLLFLFSSAYSRGVFRRDAHKSE" in
        let c = "MKWVTFISLLFLFWWAYSRGVFRRDAHKSE" in
        let self = Align.self_score Subst_matrix.blosum62 in
        check Alcotest.bool "self-scores differ" true (self a <> self c);
        let ix = Homology.probe_index Alphabet.Protein [| a |] in
        let hit probe_is_query =
          match
            Homology.probe ix ~probe_is_query ~keep:(fun _ -> true) c
              ~min_normalized:0.3
          with
          | [ h ] -> h
          | hits -> Alcotest.fail (Printf.sprintf "%d hits" (List.length hits))
        in
        let as_query = hit true and as_subject = hit false in
        check Alcotest.int "same raw score" as_query.score as_subject.score;
        check (Alcotest.float 0.0) "probe is the query"
          (float_of_int as_query.score /. float_of_int (self c))
          as_query.norm;
        check (Alcotest.float 0.0) "indexed sequence is the query"
          (float_of_int as_subject.score /. float_of_int (self a))
          as_subject.norm);
    Alcotest.test_case "protein homology" `Quick (fun () ->
        let s = "MKWVTFISLLFLFSSAYSRGVFRRDAH" in
        let ix = Homology.probe_index Alphabet.Protein [| s ^ "KSEVAH" |] in
        check Alcotest.bool "found" true
          (Homology.probe ix ~probe_is_query:true ~keep:(fun _ -> true) s
             ~min_normalized:0.5
          <> []));
  ]

let tests =
  [
    ("seq.alphabet", alphabet_tests @ classify_props);
    ("seq.subst_matrix", subst_tests);
    ("seq.align", align_tests);
    ("seq.kmer_index", kmer_tests);
    ("seq.homology", homology_tests);
  ]
