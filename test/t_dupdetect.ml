open Aladin_links
open Aladin_dup

let check = Alcotest.check

(* two ids are connected when a cluster holds both *)
let connected uf a b =
  a = b
  || List.exists (fun c -> List.mem a c && List.mem b c) (Union_find.clusters uf)

let union_find_tests =
  [
    Alcotest.test_case "basic union" `Quick (fun () ->
        let uf = Union_find.create () in
        Union_find.union uf "a" "b";
        Union_find.union uf "b" "c";
        check Alcotest.bool "a~c" true (connected uf "a" "c");
        check Alcotest.bool "a!~d" false (connected uf "a" "d"));
    Alcotest.test_case "clusters min size 2" `Quick (fun () ->
        let uf = Union_find.create () in
        Union_find.union uf "lonely" "lonely";
        Union_find.union uf "a" "b";
        check Alcotest.(list (list string)) "one cluster" [ [ "a"; "b" ] ]
          (Union_find.clusters uf));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"union is equivalence" ~count:50
         QCheck.(list (pair (int_bound 10) (int_bound 10)))
         (fun pairs ->
           let uf = Union_find.create () in
           List.iter
             (fun (a, b) ->
               Union_find.union uf (string_of_int a) (string_of_int b))
             pairs;
           (* symmetric + transitive closure: connected is an equivalence *)
           List.for_all
             (fun (a, b) ->
               connected uf (string_of_int a) (string_of_int b)
               && connected uf (string_of_int b) (string_of_int a))
             pairs));
  ]

(* sequence-shaped values: >= 30 residues of a DNA or protein alphabet in
   mixed case, with embedded spaces and newlines; the second value of a
   pair is either unrelated or a point-mutated, case-flipped copy *)
let seq_value_pair =
  let open QCheck.Gen in
  let value_of alphabet len =
    let residue = map (fun i -> alphabet.[i]) (int_bound (String.length alphabet - 1)) in
    let cased = map2 (fun c up -> if up then c else Char.lowercase_ascii c) residue bool in
    let* chars =
      list_repeat len (frequency [ (12, cased); (1, oneofl [ ' '; '\n' ]) ])
    in
    let* tail = list_repeat 30 cased in
    return (String.of_seq (List.to_seq (chars @ tail)))
  in
  let mutate alphabet s =
    let* flips = list_repeat (String.length s) (int_bound 9) in
    let* subst = list_repeat (String.length s) (int_bound (String.length alphabet - 1)) in
    let flips = Array.of_list flips and subst = Array.of_list subst in
    return
      (String.mapi
         (fun i c ->
           match flips.(i) with
           | 0 when c <> ' ' && c <> '\n' -> alphabet.[subst.(i)]
           | 1 -> Char.lowercase_ascii c
           | _ -> c)
         s)
  in
  let gen =
    let* alphabet = oneofl [ "ACGT"; "ACDEFGHIKLMNPQRSTVWY" ] in
    let* a = int_range 0 90 >>= value_of alphabet in
    let* b =
      frequency
        [ (1, int_range 0 90 >>= value_of alphabet); (2, mutate alphabet a) ]
    in
    return (a, b)
  in
  QCheck.make ~print:QCheck.Print.(pair string string) gen

(* [Field_sim.is_sequence] as it counted distinct letters with a table *)
let is_sequence_reference s =
  String.length s >= 30
  && String.for_all
       (fun c ->
         let c = Char.uppercase_ascii c in
         (c >= 'A' && c <= 'Z') || c = ' ' || c = '\n')
       s
  &&
  let seen = Hashtbl.create 8 in
  String.iter
    (fun c ->
      let c = Char.uppercase_ascii c in
      if c <> ' ' && c <> '\n' then Hashtbl.replace seen c ())
    s;
  Hashtbl.length seen <= 21

let is_sequence_seed = 26

(* strings of 0-200 bytes, mostly letters of either case, spaces and
   newlines, over an alphabet of 1 to 26 letters so that both sides of
   the 21-letter limit come up; now and then another byte *)
let sequence_like_value =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      int_range 1 26 >>= fun letters ->
      let letter =
        map2
          (fun i up -> Char.chr (i + Char.code (if up then 'A' else 'a')))
          (int_bound (letters - 1)) bool
      in
      let byte =
        frequency
          [ (40, letter); (3, return ' '); (2, return '\n'); (1, char) ]
      in
      string_size ~gen:byte (int_range 0 200))

let field_sim_tests =
  [
    Alcotest.test_case "metric choice" `Quick (fun () ->
        check Alcotest.bool "exact" true (Field_sim.choose_metric "abc" "abc" = Field_sim.Exact);
        check Alcotest.bool "edit for short" true
          (Field_sim.choose_metric "abc" "abd" = Field_sim.Edit);
        check Alcotest.bool "token for long" true
          (Field_sim.choose_metric (String.make 30 'x' ^ " words here") "other long text entirely"
          = Field_sim.Token));
    Alcotest.test_case "sequence metric" `Quick (fun () ->
        let s1 = String.concat "" (List.init 3 (fun _ -> "ACGTACGTACGT")) in
        let s2 = String.concat "" (List.init 3 (fun _ -> "ACGTACCTACGT")) in
        check Alcotest.bool "seq" true
          (Field_sim.choose_metric s1 s2 = Field_sim.Sequence_metric);
        check Alcotest.bool "high" true (Field_sim.similarity s1 s2 > 0.7));
    Alcotest.test_case "similarity bounds" `Quick (fun () ->
        check (Alcotest.float 0.001) "both empty" 1.0 (Field_sim.similarity "" "");
        check (Alcotest.float 0.001) "one empty" 0.0 (Field_sim.similarity "" "x");
        check (Alcotest.float 0.001) "case-insensitive exact" 1.0
          (Field_sim.similarity "AbC" "abc"));
    Alcotest.test_case "name_affinity" `Quick (fun () ->
        check Alcotest.bool "desc vs desc" true
          (Field_sim.name_affinity "entry.description" "prot.description" > 0.0);
        check (Alcotest.float 0.001) "unrelated" 0.0
          (Field_sim.name_affinity "entry.name" "prot.sequence"));
    Alcotest.test_case "name_affinity dedups tokens (true Jaccard)" `Quick
      (fun () ->
        (* the repeated token must not inflate the intersection past the
           union: the multiset version scored this 2.0 *)
        check (Alcotest.float 0.001) "gene_gene vs gene" 1.0
          (Field_sim.name_affinity "gene_gene" "gene");
        check (Alcotest.float 0.001) "partial overlap" 0.5
          (Field_sim.name_affinity "locus_locus_tag" "locus");
        check Alcotest.bool "never exceeds 1" true
          (List.for_all
             (fun (a, b) -> Field_sim.name_affinity a b <= 1.0)
             [ ("gene_gene", "gene"); ("a_a_b_b", "a_b"); ("x.x", "x_x_x") ]));
    Alcotest.test_case "prepared similarity equals unprepared" `Quick (fun () ->
        let vals =
          [ ""; "  "; "BRCA1"; "brca1 "; "Homo sapiens"; "ACGTACGTACGTACGTACGT";
            "a long description of a protein that repairs dna in cells";
            "P11140"; "p11140" ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check (Alcotest.float 1e-9)
                  (Printf.sprintf "%S ~ %S" a b)
                  (Field_sim.similarity a b)
                  (Field_sim.similarity_prepared (Field_sim.prepare a)
                     (Field_sim.prepare b)))
              vals)
          vals);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"prepared sequence similarity equals dice_bigrams"
         ~count:500 seq_value_pair
         (fun (a, b) ->
           (* the values must take the sequence path for this to test it *)
           (a = b || Field_sim.choose_metric a b = Field_sim.Sequence_metric)
           && Field_sim.similarity_prepared (Field_sim.prepare a)
                (Field_sim.prepare b)
              = Aladin_text.Strdist.dice_bigrams (String.trim a) (String.trim b)));
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| is_sequence_seed |])
      (QCheck.Test.make ~name:"is_sequence letter mask equals the table count"
         ~count:2000 sequence_like_value
         (fun s -> Field_sim.is_sequence_value s = is_sequence_reference s));
  ]

let repr obj_acc source fields =
  { Object_sim.obj = Objref.make ~source ~relation:"r" ~accession:obj_acc; fields }

(* the duplicate pass's score of two objects: both prepared, then bound
   to the context *)
let similarity ?context a b =
  Object_sim.similarity_prepared
    (Object_sim.bind ?context (Object_sim.prepare a))
    (Object_sim.bind ?context (Object_sim.prepare b))

let object_sim_tests =
  [
    Alcotest.test_case "identical objects near 1" `Quick (fun () ->
        let fields = [ ("r.name", "BRCA2X"); ("r.desc", "repairs the DNA") ] in
        let s = similarity (repr "A" "s1" fields) (repr "B" "s2" fields) in
        check Alcotest.bool "high" true (s > 0.85));
    Alcotest.test_case "disjoint objects low" `Quick (fun () ->
        let a = repr "A" "s1" [ ("r.name", "AAAB1"); ("r.desc", "mmm nnn ooo") ] in
        let b = repr "B" "s2" [ ("r.name", "ZZZY9"); ("r.desc", "qqq rrr sss") ] in
        check Alcotest.bool "low" true (similarity a b < 0.5));
    Alcotest.test_case "empty fields zero" `Quick (fun () ->
        let a = repr "A" "s1" [] and b = repr "B" "s2" [ ("r.x", "v") ] in
        check (Alcotest.float 0.001) "zero" 0.0 (similarity a b));
    Alcotest.test_case "context downweights common values" `Quick (fun () ->
        (* many objects share "Homo sapiens"; two also share a rare name *)
        let common i =
          repr (Printf.sprintf "C%d" i) "s1"
            [ ("r.org", "Homo sapiens"); ("r.name", Printf.sprintf "NAME%04d" i) ]
        in
        let a = repr "A" "s1" [ ("r.org", "Homo sapiens"); ("r.name", "RARE77") ] in
        let b = repr "B" "s2" [ ("r.org", "Homo sapiens"); ("r.name", "RARE77") ] in
        let c = repr "C" "s2" [ ("r.org", "Homo sapiens"); ("r.name", "OTHER88") ] in
        let reprs = a :: b :: c :: List.init 20 common in
        let ctx = Object_sim.context_of reprs in
        let dup_score = similarity ~context:ctx a b in
        let nondup_score = similarity ~context:ctx a c in
        check Alcotest.bool "dup higher" true (dup_score > nondup_score +. 0.2));
    Alcotest.test_case "explain mentions anchor and score" `Quick (fun () ->
        let fields = [ ("r.name", "BRCA2X"); ("r.desc", "repairs the DNA today") ] in
        let a = repr "A" "s1" fields and b = repr "B" "s2" fields in
        let ctx = Object_sim.context_of [ a; b ] in
        let text = Object_sim.explain ~context:ctx a b in
        check Alcotest.bool "anchor shown" true
          (Aladin_text.Strdist.contains ~needle:"ANCHOR" text);
        check Alcotest.bool "score line" true
          (Aladin_text.Strdist.contains ~needle:"similarity =" text));
    Alcotest.test_case "categorical low-df value cannot anchor" `Quick (fun () ->
        (* "bluex" is rare but has no digit and is short: not identifying *)
        let a = repr "A" "s1" [ ("r.color", "bluex") ] in
        let b = repr "B" "s2" [ ("r.color", "bluex") ] in
        let ctx = Object_sim.context_of [ a; b ] in
        check Alcotest.bool "halved" true (similarity ~context:ctx a b < 0.6));
    Alcotest.test_case "field_matches aligned" `Quick (fun () ->
        let a = repr "A" "s1" [ ("r.name", "XYZ1") ] in
        let b = repr "B" "s2" [ ("q.other", "zzz"); ("q.name", "XYZ1") ] in
        (* the explanation lists one line per matched field *)
        let matches =
          List.filter
            (fun l -> Aladin_text.Strdist.contains ~needle:" ~ " l)
            (String.split_on_char '\n' (Object_sim.explain a b))
        in
        match matches with
        | [ m ] ->
            check Alcotest.bool "left" true
              (Aladin_text.Strdist.contains ~needle:"r.name=\"XYZ1\"" m);
            check Alcotest.bool "right" true
              (Aladin_text.Strdist.contains ~needle:"q.name=\"XYZ1\"" m);
            check Alcotest.bool "exact" true
              (Aladin_text.Strdist.contains ~needle:"vs=1.00 " m)
        | ms -> Alcotest.fail (Printf.sprintf "%d matches" (List.length ms)));
  ]

(* --- the identity bound: Object_sim.may_agree against the scoring ---

   Two objects and a crowd of fillers that copy them or draw fresh
   fields, so the pair's dfs fall on both sides of the identity cap (8
   for this many objects). Attribute names come from a small pool that
   shares tokens; values from families of equal and near-equal
   variants: identifiers with digits, their digit-less neighbours, long
   text with and without digits, sequences and a common phrase. b keeps,
   varies, replaces or drops each of a's fields. *)
let bound_case_gen =
  let open QCheck.Gen in
  let attrs =
    [ "gene.symbol"; "gene.name"; "prot.name"; "entry.desc"; "entry.seq";
      "xref.acc" ]
  in
  let families =
    [ [ "BRCA1"; "brca1"; "BRCA12"; "BRCA" ];
      [ "P12345"; "P12354"; "p12345"; "P1234" ];
      [ "kinase1"; "kinase"; "kinases"; "KINASE1" ];
      [ "AB12"; "AB1"; "ab12" ];
      [ "alpha-kinase 2 involved in signal transduction";
        "Alpha-kinase 2 involved in signal transductions";
        "alpha kinase involved in signal transduction";
        "alpha-kinase 2 involved in transduction" ];
      [ "receptor binding calcium ions in the membrane";
        "receptor binding calcium ions in membranes" ];
      [ "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGE";
        "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEIAHRFKDLGE" ];
      [ "ACGTACGGTACCATGGCATCGATCGGCTAGCTAGGCTAACG";
        "acgtacggtaccatggcttcgatcggctagctaggctaacg" ];
      [ "Homo sapiens"; "homo sapiens"; "Homo sapien" ] ]
  in
  let value = oneofl families >>= oneofl in
  let field = pair (oneofl attrs) value in
  let fields lo hi = list_size (int_range lo hi) field in
  let vary (attr, v) =
    let family = List.find (List.mem v) families in
    let* attr' = frequency [ (3, return attr); (1, oneofl attrs) ] in
    frequency
      [ (2, return [ (attr', v) ]);
        (3, map (fun v' -> [ (attr', v') ]) (oneofl family));
        (1, map (fun f -> [ f ]) field);
        (1, return []) ]
  in
  let* a = fields 0 4 in
  let* kept = flatten_l (List.map vary a) in
  let* extra = fields 0 2 in
  let b = List.concat kept @ extra in
  let* fillers =
    list_size (int_range 0 24)
      (frequency [ (1, return a); (1, return b); (2, fields 1 3) ])
  in
  return (a, b, fillers)

let bound_case_print (a, b, fillers) =
  let show fs =
    String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) fs)
  in
  Printf.sprintf "a: %s\nb: %s\n%d fillers:\n%s" (show a) (show b)
    (List.length fillers)
    (String.concat "\n" (List.map show fillers))

let bound_tests =
  [
    Alcotest.test_case "no possible identity agreement scores at most 0.5"
      `Quick (fun () ->
        let tight = ref 0 and agreeing = ref 0 in
        let test =
          QCheck.Test.make ~name:"may_agree bounds similarity_prepared"
            ~count:600
            (QCheck.make ~print:bound_case_print bound_case_gen)
            (fun (a, b, fillers) ->
              let prep i fs =
                Object_sim.prepare
                  (repr (Printf.sprintf "O%d" i) (Printf.sprintf "s%d" i) fs)
              in
              let pa = prep 0 a and pb = prep 1 b in
              let context =
                Object_sim.context_of_prepared
                  (pa :: pb :: List.mapi (fun i fs -> prep (i + 2) fs) fillers)
              in
              let ba = Object_sim.bind ~context pa
              and bb = Object_sim.bind ~context pb in
              let sim = Object_sim.similarity_prepared ba bb in
              let agree = Object_sim.may_agree ba bb in
              if (not agree) && sim > 0.5 then
                QCheck.Test.fail_reportf "may_agree false, similarity %.17g" sim;
              if (not agree) && sim > 0.4 then incr tight;
              if agree && sim > 0.5 then incr agreeing;
              (* the thresholded field test is the plain comparison *)
              List.iter
                (fun (_, va) ->
                  List.iter
                    (fun (_, vb) ->
                      let fa = Field_sim.prepare va
                      and fb = Field_sim.prepare vb in
                      List.iter
                        (fun t ->
                          if
                            Field_sim.similarity_at_least fa fb t
                            <> (Field_sim.similarity_prepared fa fb >= t)
                          then
                            QCheck.Test.fail_reportf
                              "similarity_at_least %S %S %g disagrees" va vb t)
                        [ 0.5; 0.85; 1.0 ])
                    b)
                a;
              true)
        in
        QCheck.Test.check_exn ~rand:(Random.State.make [| 19 |]) test;
        check Alcotest.bool "pairs the bound holds tightly" true (!tight > 0);
        check Alcotest.bool "agreeing pairs above 0.5" true (!agreeing > 0));
    Alcotest.test_case "a threshold at most 0.5 scores every candidate" `Quick
      (fun () ->
        (* "kinase" is no anchor (short, no digit): the pair scores 0.5 *)
        let a = repr "A" "s1" [ ("r.name", "kinase") ] in
        let b = repr "B" "s2" [ ("r.name", "kinase") ] in
        let context = Object_sim.context_of [ a; b ] in
        let bound r = Object_sim.bind ~context (Object_sim.prepare r) in
        check Alcotest.bool "no identity agreement possible" false
          (Object_sim.may_agree (bound a) (bound b));
        let detect min_similarity =
          let tr = Aladin_obs.Trace.create () in
          let r =
            Aladin_obs.Trace.with_ambient tr (fun () ->
                Dup_detect.detect_on
                  ~params:{ Dup_detect.default_params with min_similarity }
                  [ a; b ])
          in
          (r, Aladin_obs.Trace.counter_value tr "dup.candidates_skipped")
        in
        let low, low_skipped = detect 0.4 in
        check Alcotest.int "one candidate" 1 low.candidates_checked;
        check Alcotest.int "scored" 0 low_skipped;
        (match low.links with
        | [ l ] ->
            check Alcotest.bool "score in (0.4, 0.5]" true
              (l.confidence > 0.4 && l.confidence <= 0.5)
        | ls -> Alcotest.failf "%d links" (List.length ls));
        let high, high_skipped = detect Dup_detect.default_params.min_similarity in
        check Alcotest.int "still a candidate" 1 high.candidates_checked;
        check Alcotest.int "skipped by the bound" 1 high_skipped;
        check Alcotest.int "no link" 0 (List.length high.links));
  ]

(* reprs of planted duplicates across two pseudo-sources *)
let planted_reprs () =
  let words =
    [| "ALPHA"; "BRAVO"; "CHARLIE"; "DELTA"; "ECHO"; "FOXTROT"; "GOLF";
       "HOTEL"; "INDIA"; "JULIET" |]
  in
  let mk source i extra =
    repr
      (Printf.sprintf "%s%03d" (String.uppercase_ascii source) i)
      source
      ([ ("p.name", Printf.sprintf "%s%d" words.(i) i);
         ("p.desc",
          Printf.sprintf "the %s protein number %d does thing %d"
            (String.lowercase_ascii words.(i)) i (i * 7)) ]
      @ extra)
  in
  let s1 = List.init 10 (fun i -> mk "left" i [ ("p.org", "Homo sapiens") ]) in
  let s2 = List.init 10 (fun i -> mk "right" i [ ("p.species", "Homo sapiens") ]) in
  s1 @ s2

let dup_detect_tests =
  [
    Alcotest.test_case "planted duplicates found" `Quick (fun () ->
        let r = Dup_detect.detect_on (planted_reprs ()) in
        check Alcotest.int "ten pairs" 10 (List.length r.links);
        check Alcotest.int "ten clusters" 10 (List.length r.clusters));
    Alcotest.test_case "higher threshold fewer links" `Quick (fun () ->
        let reprs = planted_reprs () in
        let lo =
          Dup_detect.detect_on
            ~params:{ Dup_detect.default_params with min_similarity = 0.5 }
            reprs
        in
        let hi =
          Dup_detect.detect_on
            ~params:{ Dup_detect.default_params with min_similarity = 0.99 }
            reprs
        in
        check Alcotest.bool "monotone" true
          (List.length hi.links <= List.length lo.links));
    Alcotest.test_case "blocking vs all_pairs same recall here" `Quick (fun () ->
        let reprs = planted_reprs () in
        let blocked = Dup_detect.detect_on reprs in
        let full =
          Dup_detect.detect_on
            ~params:{ Dup_detect.default_params with all_pairs = true }
            reprs
        in
        check Alcotest.int "same" (List.length full.links) (List.length blocked.links);
        check Alcotest.bool "blocking cheaper" true
          (blocked.candidates_checked <= full.candidates_checked));
    Alcotest.test_case "same-source pairs never candidates" `Quick (fun () ->
        let r = Dup_detect.detect_on (planted_reprs ()) in
        check Alcotest.bool "cross only" true
          (List.for_all
             (fun (l : Link.t) -> l.src.Objref.source <> l.dst.Objref.source)
             r.links));
    Alcotest.test_case "links carry Duplicate kind" `Quick (fun () ->
        let r = Dup_detect.detect_on (planted_reprs ()) in
        check Alcotest.bool "kind" true
          (List.for_all (fun (l : Link.t) -> l.kind = Link.Duplicate) r.links));
    Alcotest.test_case "blocking is case-insensitive" `Quick (fun () ->
        (* regression: "BRCA1" and "brca1" must land in the same block, so
           the mixed-case duplicate pair is actually considered *)
        let a = repr "A" "s1" [ ("r.name", "BRCA1") ] in
        let b = repr "B" "s2" [ ("r.name", "brca1") ] in
        let considered reprs = (Dup_detect.detect_on reprs).candidates_checked in
        check Alcotest.int "pair considered" 1 (considered [ a; b ]);
        (* same for multi-word values that go through the token keys *)
        let c = repr "C" "s1" [ ("r.desc", "Alpha KINASE protein") ] in
        let d = repr "D" "s2" [ ("r.desc", "alpha kinase PROTEIN") ] in
        check Alcotest.int "token blocks shared" 1 (considered [ c; d ]));
  ]

(* a small generated corpus, profiled: two overlapping protein sources
   (sequences included) and two overlapping interaction sources *)
let corpus_profiles =
  lazy
    (let c =
       Aladin_datagen.Corpus.generate
         {
           Aladin_datagen.Corpus.default_params with
           universe =
             { Aladin_datagen.Universe.default_params with n_proteins = 24;
               n_genes = 10; n_structures = 8; n_diseases = 4; n_terms = 8;
               n_families = 3 };
         }
     in
     Profile_list.of_profiles
       (List.map Aladin_discovery.Source_profile.analyze c.catalogs))

let between_tests =
  [
    Alcotest.test_case "detect_between equals detect_on over the merge" `Quick
      (fun () ->
        let profiles = Lazy.force corpus_profiles in
        (* confidences in hex: the per-pair df binding must reproduce them
           to the last bit *)
        let norm (r : Dup_detect.result) =
          ( List.map
              (fun (l : Link.t) ->
                Printf.sprintf "%s %s %h" (Objref.to_string l.src)
                  (Objref.to_string l.dst) l.confidence)
              r.links,
            r.clusters,
            r.candidates_checked )
        in
        let testable =
          Alcotest.(triple (list string) (list (list string)) int)
        in
        List.iter
          (fun (a, b) ->
            (* the representations prep_source builds for one source *)
            let reprs_of s =
              Object_sim.build_reprs (Profile_list.restrict profiles [ s ])
            in
            let merged =
              List.merge
                (fun (x : Object_sim.repr) (y : Object_sim.repr) ->
                  Objref.compare x.obj y.obj)
                (reprs_of a) (reprs_of b)
            in
            let base = norm (Dup_detect.detect_on merged) in
            let links, _, _ = base in
            check Alcotest.bool (a ^ "/" ^ b ^ " has duplicates") true (links <> []);
            List.iter
              (fun domains ->
                let p = Aladin_par.Pool.create ~domains () in
                Fun.protect
                  ~finally:(fun () -> Aladin_par.Pool.shutdown p)
                  (fun () ->
                    let lbl what =
                      Printf.sprintf "%s/%s %s at domains=%d" a b what domains
                    in
                    let pa = Dup_detect.prep_source ~pool:p profiles ~source:a in
                    let pb = Dup_detect.prep_source ~pool:p profiles ~source:b in
                    check testable (lbl "detect_between") base
                      (norm (Dup_detect.detect_between ~pool:p pa pb))))
              [ 1; 2; 4 ])
          [ ("pir", "uniprot"); ("bind", "mint") ]);
  ]

(* build_reprs over a real profiled source: the field cap must hold *)
let build_reprs_tests =
  let open Aladin_relational in
  (* one entry relation of [n] text columns besides its id and accession *)
  let source n =
    let cat = Catalog.create ~name:"caps" in
    let entry =
      Catalog.create_relation cat ~name:"entry"
        (Schema.of_names
           ("entry_id" :: "accession" :: List.init n (Printf.sprintf "c%d")))
    in
    List.iteri
      (fun i acc ->
        Relation.insert entry
          (Array.append
             [| Value.Int (i + 1); Value.text acc |]
             (Array.init n (fun j ->
                  Value.text (Printf.sprintf "text value %d-%d ok" i j)))))
      [ "CP001"; "CP002"; "CP003" ];
    cat
  in
  let reprs n =
    Object_sim.build_reprs
      (Profile_list.of_profiles
         [ Aladin_discovery.Source_profile.analyze (source n) ])
  in
  [
    Alcotest.test_case "max_fields_per_object is respected" `Quick (fun () ->
        let reprs = reprs 45 in
        check Alcotest.bool "some reprs" true (reprs <> []);
        List.iter
          (fun (r : Object_sim.repr) ->
            check Alcotest.int
              (Objref.to_string r.obj ^ " capped at 40")
              40 (List.length r.fields))
          reprs);
    Alcotest.test_case "uncapped keeps every content field" `Quick (fun () ->
        check Alcotest.bool "every text field below the cap" true
          (List.for_all
             (fun (r : Object_sim.repr) -> List.length r.fields >= 6)
             (reprs 6)));
  ]

(* the conflicts a browser view lists for a duplicate link from a to b *)
let between (a : Object_sim.repr) (b : Object_sim.repr) =
  Conflict.in_duplicates (Conflict.table [ a; b ])
    [ Link.make ~src:a.obj ~dst:b.obj ~kind:Link.Duplicate ~confidence:0.9
        ~evidence:"t" ]

let conflict_tests =
  [
    Alcotest.test_case "disagreeing matched field flagged" `Quick (fun () ->
        let a = repr "A" "s1" [ ("p.length", "431") ] in
        let b = repr "B" "s2" [ ("q.length", "497") ] in
        match between a b with
        | [ c ] ->
            check Alcotest.string "va" "431" c.value_a;
            check Alcotest.string "vb" "497" c.value_b
        | cs -> Alcotest.fail (Printf.sprintf "%d conflicts" (List.length cs)));
    Alcotest.test_case "agreeing fields not flagged" `Quick (fun () ->
        let a = repr "A" "s1" [ ("p.name", "SAME1") ] in
        let b = repr "B" "s2" [ ("q.name", "SAME1") ] in
        check Alcotest.int "none" 0 (List.length (between a b)));
    Alcotest.test_case "unrelated attribute names not compared" `Quick (fun () ->
        let a = repr "A" "s1" [ ("p.organism", "mouse") ] in
        let b = repr "B" "s2" [ ("q.sequence", "ACGT") ] in
        check Alcotest.int "none" 0 (List.length (between a b)));
    Alcotest.test_case "in_duplicates scoped to links" `Quick (fun () ->
        let a = repr "A" "s1" [ ("p.len", "10") ] in
        let b = repr "B" "s2" [ ("q.len", "99") ] in
        let link =
          Link.make ~src:a.Object_sim.obj ~dst:b.Object_sim.obj
            ~kind:Link.Duplicate ~confidence:0.9 ~evidence:"t"
        in
        check Alcotest.int "one conflict" 1
          (List.length (Conflict.in_duplicates (Conflict.table [ a; b ]) [ link ]));
        let xref = { link with kind = Link.Xref } in
        check Alcotest.int "xref ignored" 0
          (List.length
             (Conflict.in_duplicates (Conflict.table [ a; b ]) [ xref ])));
  ]

(* Conflict.between as it was before it prepared each field once: both
   names tokenized and both values prepared again for every field pair.
   Kept as the reference the prepared kernel must equal. *)
module Ref_conflict = struct
  let between (a : Object_sim.repr) (b : Object_sim.repr) =
    List.concat_map
      (fun (attr_a, value_a) ->
        List.filter_map
          (fun (attr_b, value_b) ->
            let name_sim = Field_sim.name_affinity attr_a attr_b in
            if name_sim < 0.3 then None
            else
              let vs = Field_sim.similarity value_a value_b in
              if vs >= 0.8 then None
              else
                Some
                  { Conflict.obj_a = a.obj; obj_b = b.obj; attr_a; attr_b;
                    value_a; value_b; similarity = vs })
          b.fields)
      a.fields
end

let conflict_kernel_seed = 23

(* reprs whose attribute names share tokens, carry "id", dots,
   underscores and mixed case, and whose values are empty, blank,
   sequence-shaped, long text or short identifiers, so every metric and
   both thresholds are crossed *)
let conflict_kernel_test =
  let open QCheck.Gen in
  let token = oneofl [ "name"; "gene"; "length"; "seq"; "descr"; "id"; "Name"; "GENE"; "Id"; "" ] in
  let attr =
    let* parts = list_size (int_range 1 3) token in
    let* sep = oneofl [ "."; "_"; "._" ] in
    return (String.concat sep parts)
  in
  let letters alphabet n =
    map (fun l -> String.concat "" l)
      (list_repeat n (map (String.make 1) (oneofl alphabet)))
  in
  let value =
    oneof
      [
        return "";
        oneofl [ " "; "  "; "\t \n" ];
        (* sequence-shaped: long, letters only, few distinct letters *)
        (let* n = int_range 30 60 in
         letters [ 'A'; 'C'; 'G'; 'T' ] n);
        (let* n = int_range 30 60 in
         map String.lowercase_ascii (letters [ 'M'; 'K'; 'L'; 'V'; 'A' ] n));
        (* 25 chars and more: token metric *)
        (let* words =
           list_size (int_range 4 9)
             (oneofl [ "kinase"; "binding"; "protein"; "DNA"; "repair"; "Kinase"; "membrane" ])
         in
         return (String.concat " " words));
        (* short identifiers: edit metric, sometimes equal *)
        (let* p = oneofl [ "P"; "Q"; "ab"; "AB" ] in
         let* d = int_range 0 120 in
         return (Printf.sprintf "%s%03d" p d));
      ]
  in
  let repr acc =
    let* fields = list_size (int_range 0 12) (pair attr value) in
    return
      { Object_sim.obj = Objref.make ~source:"s" ~relation:"r" ~accession:acc;
        fields }
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| conflict_kernel_seed |])
    (QCheck.Test.make ~name:"between equals the per-pair reference" ~count:300
       (QCheck.make (pair (repr "A") (repr "B")))
       (fun (a, b) ->
         between a b = Ref_conflict.between a b
         && between b a = Ref_conflict.between b a
         && between a a = Ref_conflict.between a a))

let conflict_tests = conflict_tests @ [ conflict_kernel_test ]

let tests =
  [
    ("dupdetect.union_find", union_find_tests);
    ("dupdetect.field_sim", field_sim_tests);
    ("dupdetect.object_sim", object_sim_tests);
    ("dupdetect.identity_bound", bound_tests);
    ("dupdetect.build_reprs", build_reprs_tests);
    ("dupdetect.dup_detect", dup_detect_tests);
    ("dupdetect.between", between_tests);
    ("dupdetect.conflict", conflict_tests);
  ]
