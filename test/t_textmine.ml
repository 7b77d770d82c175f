open Aladin_text

let check = Alcotest.check

let tokenize_tests =
  [
    Alcotest.test_case "words split and lowercase" `Quick (fun () ->
        check Alcotest.(list string) "words" [ "atp"; "binding"; "p53" ]
          (Tokenize.words "ATP-binding, p53!"));
    Alcotest.test_case "words_raw keeps case" `Quick (fun () ->
        check Alcotest.(list string) "raw" [ "BRCA2"; "kinase" ]
          (Tokenize.words_raw "BRCA2 kinase"));
    Alcotest.test_case "stopwords" `Quick (fun () ->
        check Alcotest.bool "the" true (Tokenize.stopword "The");
        check Alcotest.bool "putative" true (Tokenize.stopword "putative");
        check Alcotest.bool "kinase" false (Tokenize.stopword "kinase"));
    Alcotest.test_case "terms filter stopwords and singles" `Quick (fun () ->
        check Alcotest.(list string) "terms" [ "kinase"; "binding" ]
          (Tokenize.terms "the kinase a binding"));
  ]

(* textbook Jaro-Winkler (flag arrays, matched characters collected as
   lists), the reference for Strdist's bitmask and byte-flag kernels;
   transpositions are halved in integer arithmetic, as Strdist defines
   them *)
let textbook_jaro_winkler a b =
  let n = String.length a and m = String.length b in
  let jaro =
    if n = 0 && m = 0 then 1.0
    else if n = 0 || m = 0 then 0.0
    else begin
      let window = max 0 ((max n m / 2) - 1) in
      let a_flag = Array.make n false and b_flag = Array.make m false in
      for i = 0 to n - 1 do
        let found = ref false in
        for j = max 0 (i - window) to min (m - 1) (i + window) do
          if (not !found) && (not b_flag.(j)) && a.[i] = b.[j] then begin
            a_flag.(i) <- true;
            b_flag.(j) <- true;
            found := true
          end
        done
      done;
      let matched s flags =
        List.filteri (fun i _ -> flags.(i)) (List.of_seq (String.to_seq s))
      in
      let ma = matched a a_flag and mb = matched b b_flag in
      let matches = List.length ma in
      if matches = 0 then 0.0
      else begin
        let half_t =
          List.length (List.filter Fun.id (List.map2 ( <> ) ma mb)) / 2
        in
        let mf = float_of_int matches in
        (mf /. float_of_int n +. mf /. float_of_int m
        +. ((mf -. float_of_int half_t) /. mf))
        /. 3.0
      end
    end
  in
  let rec prefix i =
    if i < 4 && i < n && i < m && a.[i] = b.[i] then prefix (i + 1) else i
  in
  jaro +. (float_of_int (prefix 0) *. 0.1 *. (1.0 -. jaro))

(* pairs of lengths 0-80 (both sides of Strdist's 62-character switch)
   over small alphabets, the second often an edited copy of the first *)
let jw_pair =
  let open QCheck.Gen in
  let gen =
    let* alphabet = oneofl [ "ab"; "abcd"; "acgt"; "abcdefghijklmnopqrstuvwxyz" ] in
    let char = map (fun i -> alphabet.[i]) (int_bound (String.length alphabet - 1)) in
    let* a = string_size ~gen:char (int_range 0 80) in
    let* b =
      frequency
        [ (1, string_size ~gen:char (int_range 0 80));
          ( 2,
            let* cut = int_bound (String.length a) in
            let* ins = string_size ~gen:char (int_range 0 6) in
            let* drop = int_bound 3 in
            let rest = String.length a - cut in
            return
              (String.sub a 0 cut ^ ins
              ^ String.sub a (cut + min drop rest) (rest - min drop rest)) ) ]
    in
    return (a, b)
  in
  QCheck.make ~print:QCheck.Print.(pair string string) gen

let strdist_tests =
  [
    Alcotest.test_case "levenshtein known" `Quick (fun () ->
        check Alcotest.int "kitten" 3 (Strdist.levenshtein "kitten" "sitting");
        check Alcotest.int "same" 0 (Strdist.levenshtein "abc" "abc");
        check Alcotest.int "to empty" 3 (Strdist.levenshtein "abc" ""));
    Alcotest.test_case "jaro_winkler known" `Quick (fun () ->
        let jw = Strdist.jaro_winkler "MARTHA" "MARHTA" in
        check Alcotest.bool "martha" true (jw > 0.95 && jw < 0.97);
        check (Alcotest.float 0.001) "identical" 1.0 (Strdist.jaro_winkler "DWAYNE" "DWAYNE");
        check (Alcotest.float 0.001) "empty vs nonempty" 0.0 (Strdist.jaro_winkler "" "x"));
    Alcotest.test_case "dice_bigrams" `Quick (fun () ->
        check (Alcotest.float 0.001) "identical" 1.0 (Strdist.dice_bigrams "night" "night");
        check (Alcotest.float 0.001) "disjoint" 0.0 (Strdist.dice_bigrams "abc" "xyz"));
    Alcotest.test_case "contains" `Quick (fun () ->
        check Alcotest.bool "yes" true (Strdist.contains ~needle:"GT" "ACGT");
        check Alcotest.bool "no" false (Strdist.contains ~needle:"TT" "ACGT");
        check Alcotest.bool "empty" true (Strdist.contains ~needle:"" "x"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"levenshtein symmetric" ~count:100
         QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 12))
                   (string_of_size (QCheck.Gen.int_range 0 12)))
         (fun (a, b) -> Strdist.levenshtein a b = Strdist.levenshtein b a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"levenshtein identity" ~count:100
         QCheck.(string_of_size (QCheck.Gen.int_range 0 15))
         (fun s -> Strdist.levenshtein s s = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"levenshtein triangle" ~count:100
         QCheck.(triple (string_of_size (QCheck.Gen.int_range 0 8))
                   (string_of_size (QCheck.Gen.int_range 0 8))
                   (string_of_size (QCheck.Gen.int_range 0 8)))
         (fun (a, b, c) ->
           Strdist.levenshtein a c <= Strdist.levenshtein a b + Strdist.levenshtein b c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"jaro_winkler equals the textbook definition"
         ~count:2000 jw_pair
         (fun (a, b) -> Strdist.jaro_winkler a b = textbook_jaro_winkler a b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"jaro_winkler in [0,1]" ~count:100
         QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 12))
                   (string_of_size (QCheck.Gen.int_range 0 12)))
         (fun (a, b) ->
           let s = Strdist.jaro_winkler a b in
           s >= 0.0 && s <= 1.0));
  ]

(* the whole join: the range join over every prepared document *)
let similar_pairs p ~min_sim =
  Tfidf.similar_pairs_range p ~lo:0 ~hi:(Tfidf.prepared_docs p) ~min_sim

let tfidf_tests =
  [
    Alcotest.test_case "cosine identical" `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "protein kinase binding";
        Tfidf.corpus_add c ~doc_id:"b" "unrelated gene expression stuff";
        match Tfidf.vector_of_doc c "a" with
        | Some v -> check (Alcotest.float 0.001) "self" 1.0 (Tfidf.cosine v v)
        | None -> Alcotest.fail "missing vector");
    Alcotest.test_case "cosine disjoint" `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "alpha beta";
        Tfidf.corpus_add c ~doc_id:"b" "gamma delta";
        match (Tfidf.vector_of_doc c "a", Tfidf.vector_of_doc c "b") with
        | Some va, Some vb -> check (Alcotest.float 0.001) "zero" 0.0 (Tfidf.cosine va vb)
        | _ -> Alcotest.fail "missing vectors");
    Alcotest.test_case "similar_docs excludes self" `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "zinc finger domain";
        Tfidf.corpus_add c ~doc_id:"b" "zinc finger domain protein";
        Tfidf.corpus_add c ~doc_id:"c" "completely different words here";
        let pairs = similar_pairs (Tfidf.prepare c) ~min_sim:0.3 in
        let has x y = List.exists (fun (a, b, _) -> a = x && b = y) pairs in
        check Alcotest.bool "b found" true (has "a" "b");
        check Alcotest.bool "self absent" false
          (List.exists (fun (a, b, _) -> a = b) pairs);
        check Alcotest.bool "c absent" false (has "a" "c"));
    Alcotest.test_case "corpus_add replaces" `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "first version";
        Tfidf.corpus_add c ~doc_id:"a" "second version";
        check Alcotest.int "size" 1 (Tfidf.prepared_docs (Tfidf.prepare c)));
    Alcotest.test_case "idf downweights common terms" `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "common rare1";
        Tfidf.corpus_add c ~doc_id:"b" "common rare2";
        Tfidf.corpus_add c ~doc_id:"c" "common rare3";
        Tfidf.corpus_add c ~doc_id:"d" "rare1 other";
        (* a shares the common term with b and the rare one with d *)
        let score x y =
          match
            List.find_opt (fun (a, b, _) -> a = x && b = y)
              (similar_pairs (Tfidf.prepare c) ~min_sim:0.0001)
          with
          | Some (_, _, s) -> s
          | None -> 0.0
        in
        check Alcotest.bool "rare term weighs more" true
          (score "a" "d" > score "a" "b"));
    Alcotest.test_case "unknown doc" `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        check Alcotest.bool "none" true (Tfidf.vector_of_doc c "zz" = None));
  ]

(* a small but non-trivial corpus: overlapping vocabulary clusters, one
   term in every document, singleton terms, an empty-ish doc *)
let pairs_ids = List.init 7 (Printf.sprintf "d%d")

let pairs_corpus () =
  let c = Tfidf.corpus_create () in
  List.iter2
    (fun id text -> Tfidf.corpus_add c ~doc_id:id text)
    pairs_ids
    [ "shared alpha kinase domain repair";
      "shared alpha kinase domain signaling";
      "shared beta transporter channel membrane";
      "shared beta transporter channel gating";
      "shared gamma unique1 singleton marker";
      "shared gamma receptor binding calcium";
      "shared zeta totally separate vocabulary cluster" ];
  c

(* exhaustive reference: every unordered pair scored with the naive
   hashtable vectors *)
let naive_all_pairs c =
  let ids = pairs_ids in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if String.compare a b < 0 then
            match (Tfidf.vector_of_doc c a, Tfidf.vector_of_doc c b) with
            | Some va, Some vb -> Some (a, b, Tfidf.cosine va vb)
            | _ -> None
          else None)
        ids)
    ids

let prepared_tests =
  [
    Alcotest.test_case "similar_docs prepared == naive scores" `Quick (fun () ->
        let c = pairs_corpus () in
        List.iter
          (fun id ->
            let naive =
              match Tfidf.vector_of_doc c id with
              | None -> []
              | Some v ->
                  List.filter_map
                    (fun other ->
                      if other = id then None
                      else
                        match Tfidf.vector_of_doc c other with
                        | Some vo ->
                            let s = Tfidf.cosine v vo in
                            if s >= 0.05 then Some (other, s) else None
                        | None -> None)
                    pairs_ids
                  |> List.sort (fun (ida, a) (idb, b) ->
                         match Float.compare b a with
                         | 0 -> String.compare ida idb
                         | cmp -> cmp)
            in
            (* the join's pairs of [id], from either side *)
            let prepared =
              similar_pairs (Tfidf.prepare c) ~min_sim:0.05
              |> List.filter_map (fun (a, b, s) ->
                     if a = id then Some (b, s)
                     else if b = id then Some (a, s)
                     else None)
              |> List.sort (fun (ida, a) (idb, b) ->
                     match Float.compare b a with
                     | 0 -> String.compare ida idb
                     | cmp -> cmp)
            in
            check Alcotest.int
              (Printf.sprintf "%s: same count" id)
              (List.length naive) (List.length prepared);
            List.iter2
              (fun (ida, sa) (idb, sb) ->
                check Alcotest.string (id ^ ": same doc") ida idb;
                check (Alcotest.float 1e-9) (id ^ ": same score") sa sb)
              naive prepared)
          pairs_ids);
    Alcotest.test_case "candidate join is complete vs exhaustive" `Quick
      (fun () ->
        let c = pairs_corpus () in
        let min_sim = 0.05 in
        let expected =
          List.filter (fun (_, _, s) -> s >= min_sim) (naive_all_pairs c)
          |> List.map (fun (a, b, _) -> (a, b))
        in
        let found =
          similar_pairs (Tfidf.prepare c) ~min_sim
          |> List.map (fun (a, b, _) -> (a, b))
        in
        List.iter
          (fun (a, b) ->
            check Alcotest.bool (Printf.sprintf "(%s,%s) found" a b) true
              (List.mem (a, b) found))
          expected;
        check Alcotest.int "no extra pairs" (List.length expected)
          (List.length found));
    Alcotest.test_case "similar_pairs scores match naive cosine" `Quick
      (fun () ->
        let c = pairs_corpus () in
        let naive = naive_all_pairs c in
        similar_pairs (Tfidf.prepare c) ~min_sim:0.01
        |> List.iter (fun (a, b, s) ->
               let (_, _, expected) =
                 List.find (fun (x, y, _) -> x = a && y = b) naive
               in
               check (Alcotest.float 1e-9) (a ^ "-" ^ b) expected s));
    Alcotest.test_case "each canonical pair exactly once, i < j" `Quick
      (fun () ->
        let c = pairs_corpus () in
        let pairs = similar_pairs (Tfidf.prepare c) ~min_sim:0.01 in
        List.iter
          (fun (a, b, _) ->
            check Alcotest.bool "ordered" true (String.compare a b < 0))
          pairs;
        let keys = List.map (fun (a, b, _) -> (a, b)) pairs in
        check Alcotest.int "unique" (List.length keys)
          (List.length (List.sort_uniq compare keys)));
    Alcotest.test_case "range concatenation equals full join" `Quick (fun () ->
        let c = pairs_corpus () in
        let p = Tfidf.prepare c in
        let n = Tfidf.prepared_docs p in
        let full = similar_pairs p ~min_sim:0.01 in
        (* odd, uneven boundaries on purpose *)
        List.iter
          (fun cuts ->
            let rec ranges lo = function
              | [] -> if lo < n then [ (lo, n) ] else []
              | c :: rest -> (lo, min c n) :: ranges (min c n) rest
            in
            let sharded =
              List.concat_map
                (fun (lo, hi) -> Tfidf.similar_pairs_range p ~lo ~hi ~min_sim:0.01)
                (ranges 0 cuts)
            in
            check Alcotest.bool "equal" true (sharded = full))
          [ [ 1 ]; [ 2; 3 ]; [ 1; 2; 3; 4; 5; 6 ]; [ 4 ] ]);
    Alcotest.test_case "df ceiling: all-docs term is weightless and skipped"
      `Quick (fun () ->
        (* "shared" appears in every doc of pairs_corpus: idf = ln(N/N) = 0,
           so a pair overlapping ONLY on it has cosine 0 and skipping it as
           a discriminator loses nothing *)
        let p = Tfidf.prepare (pairs_corpus ()) in
        let found = similar_pairs p ~min_sim:0.0001 in
        check Alcotest.bool "d6 pairs with nobody" true
          (List.for_all (fun (a, b, _) -> a <> "d6" && b <> "d6") found));
    Alcotest.test_case "df ceiling: singleton term still contributes weight"
      `Quick (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "linker unique1";
        Tfidf.corpus_add c ~doc_id:"b" "linker unique2";
        Tfidf.corpus_add c ~doc_id:"c" "other vocabulary";
        (* a and b share only "linker" (df 2 of 3); their singleton terms
           never generate candidates (posting length 1) but still weigh the
           cosine down below 1.0 *)
        match similar_pairs (Tfidf.prepare c) ~min_sim:0.0001 with
        | [ ("a", "b", s) ] ->
            check Alcotest.bool "0 < s < 1" true (s > 0.0 && s < 1.0)
        | other ->
            Alcotest.fail (Printf.sprintf "%d pairs" (List.length other)));
    Alcotest.test_case "corpus_add invalidates the prepared cache" `Quick
      (fun () ->
        let c = Tfidf.corpus_create () in
        Tfidf.corpus_add c ~doc_id:"a" "alpha kinase";
        Tfidf.corpus_add c ~doc_id:"b" "alpha kinase";
        Tfidf.corpus_add c ~doc_id:"z" "background vocabulary so idf is positive";
        let a_b () =
          List.exists
            (fun (a, b, _) -> a = "a" && b = "b")
            (similar_pairs (Tfidf.prepare c) ~min_sim:0.5)
        in
        check Alcotest.bool "similar before" true (a_b ());
        Tfidf.corpus_add c ~doc_id:"b" "totally different now";
        check Alcotest.bool "not similar after replace" false (a_b ()));
  ]

(* an index of (doc id, field, text) adds, in order *)
let index_of adds =
  Inverted_index.build (fun add ->
      List.iter (fun (doc_id, field, text) -> add ~doc_id ~field text) adds)

(* the per-query count [Inverted_index.idf] made before the index counted
   each term's documents when built: distinct ids among its postings *)
let idf_per_query idx term =
  let n = float_of_int (max 1 (Inverted_index.doc_count idx)) in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (p : Inverted_index.posting) -> Hashtbl.replace seen p.doc_id ())
    (Inverted_index.postings idx term);
  let docs_with = Hashtbl.length seen in
  if docs_with = 0 then 0.0 else log (1.0 +. (n /. float_of_int docs_with))

(* the ranking as it was computed with [idf_per_query] *)
let search_per_query idx ?field ~limit query =
  let terms = Tokenize.terms query in
  let scores = Hashtbl.create 64 in
  List.iter
    (fun term ->
      let w = idf_per_query idx term in
      if w > 0.0 then
        List.iter
          (fun (p : Inverted_index.posting) ->
            if match field with None -> true | Some f -> p.field = f then begin
              let score, matched =
                match Hashtbl.find_opt scores p.doc_id with
                | Some e -> e
                | None ->
                    let e = (ref 0.0, ref []) in
                    Hashtbl.add scores p.doc_id e;
                    e
              in
              score := !score +. (float_of_int p.tf *. w);
              if not (List.mem term !matched) then matched := term :: !matched
            end)
          (Inverted_index.postings idx term))
    terms;
  Hashtbl.fold
    (fun doc_id (score, matched) acc ->
      let coverage =
        float_of_int (List.length !matched)
        /. float_of_int (max 1 (List.length terms))
      in
      (doc_id, !score *. (0.5 +. (0.5 *. coverage)), !matched) :: acc)
    scores []
  |> List.sort (fun (da, a, _) (db, b, _) ->
         match Float.compare b a with 0 -> String.compare da db | c -> c)
  |> List.filteri (fun i _ -> i < limit)

let build_count_seed = 24

let vocabulary = [ "alpha"; "beta"; "gamma"; "kinase"; "repair" ]

(* random adds over four documents and three fields, with one document
   given one term in two fields, added first and last so that its fields
   are not contiguous *)
let random_adds =
  QCheck.Gen.(
    let word = oneofl vocabulary in
    let text = map (String.concat " ") (list_size (int_range 1 4) word) in
    let add =
      triple
        (map (Printf.sprintf "d%d") (int_range 0 3))
        (oneofl [ "f0"; "f1"; "f2" ])
        text
    in
    map
      (fun (adds, (d, w)) -> ((d, "f0", w) :: adds) @ [ (d, "f1", w ^ " " ^ w) ])
      (pair (list_size (int_range 0 12) add)
         (pair (map (Printf.sprintf "d%d") (int_range 0 3)) word)))

let build_count_test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| build_count_seed |])
    (QCheck.Test.make ~name:"build-time df equals the per-query count"
       ~count:300
       (QCheck.make
          ~print:(fun adds ->
            String.concat "; "
              (List.map (fun (d, f, t) -> Printf.sprintf "%s.%s=%S" d f t) adds))
          random_adds)
       (fun adds ->
         let idx = index_of adds in
         let bits = Int64.bits_of_float in
         List.for_all
           (fun w -> bits (Inverted_index.idf idx w) = bits (idf_per_query idx w))
           ("absent" :: vocabulary)
         && List.for_all
              (fun (field, q) ->
                let got =
                  List.map
                    (fun (r : Inverted_index.query_result) ->
                      (r.doc_id, bits r.score, r.matched))
                    (Inverted_index.search idx ?field ~limit:3 q)
                in
                let want =
                  List.map
                    (fun (d, s, m) -> (d, bits s, m))
                    (search_per_query idx ?field ~limit:3 q)
                in
                got = want)
              [
                (None, "alpha"); (None, "alpha beta kinase"); (Some "f1", "beta gamma");
                (None, "repair repair alpha"); (Some "f2", "kinase");
              ]))

let inverted_tests =
  [
    Alcotest.test_case "search finds and ranks" `Quick (fun () ->
        let idx =
          index_of
            [ ("d1", "desc", "kinase kinase kinase"); ("d2", "desc", "kinase once, other words") ]
        in
        (match Inverted_index.search idx "kinase" with
        | first :: _ :: _ -> check Alcotest.string "tf wins" "d1" first.doc_id
        | other -> Alcotest.fail (Printf.sprintf "%d results" (List.length other))));
    Alcotest.test_case "field restriction" `Quick (fun () ->
        let idx = index_of [ ("d1", "name", "alpha"); ("d2", "desc", "alpha") ] in
        let hits = Inverted_index.search idx ~field:"name" "alpha" in
        check Alcotest.(list string) "only d1" [ "d1" ]
          (List.map (fun (r : Inverted_index.query_result) -> r.doc_id) hits));
    Alcotest.test_case "multi-term coverage bonus" `Quick (fun () ->
        let idx = index_of [ ("both", "f", "alpha beta"); ("one", "f", "alpha gamma") ] in
        (match Inverted_index.search idx "alpha beta" with
        | first :: _ -> check Alcotest.string "both wins" "both" first.doc_id
        | [] -> Alcotest.fail "no results"));
    Alcotest.test_case "limit respected" `Quick (fun () ->
        let idx = index_of (List.init 30 (fun i -> (string_of_int (i + 1), "f", "shared"))) in
        check Alcotest.int "limit" 5
          (List.length (Inverted_index.search idx ~limit:5 "shared")));
    Alcotest.test_case "counts" `Quick (fun () ->
        let idx = index_of [ ("d", "f", "alpha beta") ] in
        check Alcotest.int "docs" 1 (Inverted_index.doc_count idx);
        check Alcotest.(list string) "terms" [ "d"; "d" ]
          (List.concat_map
             (fun term ->
               List.map (fun (p : Inverted_index.posting) -> p.doc_id)
                 (Inverted_index.postings idx term))
             [ "alpha"; "beta"; "gamma" ]));
    Alcotest.test_case "idf counts distinct docs across fields" `Quick
      (fun () ->
        (* same doc indexed under two fields: two postings, ONE document *)
        let idx =
          index_of [ ("d1", "name", "alpha"); ("d1", "desc", "alpha"); ("d2", "desc", "beta") ]
        in
        check (Alcotest.float 1e-9) "df 1 of 2" (log (1.0 +. 2.0))
          (Inverted_index.idf idx "alpha");
        check (Alcotest.float 1e-9) "absent term" 0.0
          (Inverted_index.idf idx "nosuch"));
    build_count_test;
  ]

let entity_tests =
  [
    Alcotest.test_case "dictionary match" `Quick (fun () ->
        let t = Entity_recog.create () in
        Entity_recog.add_dictionary t [ "brca2" ];
        match Entity_recog.recognize t "the BRCA2 gene" with
        | [ m ] ->
            check Alcotest.string "surface" "BRCA2" m.surface;
            check (Alcotest.float 0.001) "score" 1.0 m.score
        | ms -> Alcotest.fail (Printf.sprintf "%d mentions" (List.length ms)));
    Alcotest.test_case "surface scores" `Quick (fun () ->
        (* with an empty dictionary a mention's score is its surface score *)
        let t = Entity_recog.create () in
        let score word =
          match Entity_recog.recognize t ~min_score:0.0 word with
          | [ m ] -> m.score
          | _ -> 0.0
        in
        check Alcotest.bool "BRCA2 high" true (score "BRCA2" >= 0.5);
        check Alcotest.bool "p53 high" true (score "p53" >= 0.5);
        check (Alcotest.float 0.001) "plain word" 0.0 (score "protein");
        check (Alcotest.float 0.001) "stopword" 0.0 (score "the"));
    Alcotest.test_case "min_score filters" `Quick (fun () ->
        let t = Entity_recog.create () in
        let ms = Entity_recog.recognize t ~min_score:0.99 "maybe CFTR5 here" in
        check Alcotest.int "none" 0 (List.length ms));
    Alcotest.test_case "token positions" `Quick (fun () ->
        let t = Entity_recog.create () in
        Entity_recog.add_dictionary t [ "xyz1" ];
        match Entity_recog.recognize t "first second XYZ1" with
        | [ m ] -> check Alcotest.int "index" 2 m.start
        | ms -> Alcotest.fail (Printf.sprintf "%d mentions" (List.length ms)));
    Alcotest.test_case "recognize_dictionary == recognize-then-filter" `Quick
      (fun () ->
        let t = Entity_recog.create () in
        Entity_recog.add_dictionary t [ "brca2"; "p53"; "the" ];
        let texts =
          [ "the BRCA2 gene regulates p53 and CFTR5 signaling";
            "no hits at all here";
            "p53 P53 brca2 BRCA2 surface-only TOK9X";
            "" ]
        in
        List.iter
          (fun text ->
            let old_path =
              Entity_recog.recognize t ~min_score:1.0 text
              (* old linking path: score everything, then keep only
                 dictionary members at the lookup *)
              |> List.filter (fun (m : Entity_recog.mention) ->
                     List.mem
                       (String.lowercase_ascii m.surface)
                       [ "brca2"; "p53"; "the" ])
            in
            let fast = Entity_recog.recognize_dictionary t text in
            check Alcotest.int (text ^ ": count") (List.length old_path)
              (List.length fast);
            List.iter2
              (fun (a : Entity_recog.mention) (b : Entity_recog.mention) ->
                check Alcotest.string "surface" a.surface b.surface;
                check Alcotest.int "start" a.start b.start;
                check (Alcotest.float 1e-9) "score" a.score b.score)
              old_path fast)
          texts);
  ]

let tests =
  [
    ("textmine.tokenize", tokenize_tests);
    ("textmine.strdist", strdist_tests);
    ("textmine.tfidf", tfidf_tests);
    ("textmine.tfidf_prepared", prepared_tests);
    ("textmine.inverted_index", inverted_tests);
    ("textmine.entity_recog", entity_tests);
  ]
