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

(* src_d's primary relation carries two DNA columns; src_h holds a
   homolog of the first column's DX001 sequence only. Sequence lengths
   differ by more than 20% within each column, so [acc] stays the
   accession key. *)
let source_two_dna () =
  let cat = Catalog.create ~name:"src_d" in
  let gene =
    Catalog.create_relation cat ~name:"gene"
      (Schema.of_names [ "acc"; "dna1"; "dna2" ])
  in
  List.iter
    (fun (acc, d1, d2) ->
      Relation.insert gene [| Value.text acc; Value.text d1; Value.text d2 |])
    [ ("DX001", "GCTAAAGACAATTACATAACATACACGTCAGCACGAAACT",
       "TTTTTATTACACTCAGAAACAGAACTCG");
      ("DX002", "TGTTGGCCCAGTGTGAATCGCTTAAGGGTTAAGTAAGTGTGATGCATACGCCTTT",
       "GGTAATTTTGACAGGTCACGCAGAGGCGCGCCCTCCTGAAGTGCG");
      ("DX003", "ACTTGCTGTGTCCACCCCATCGGACTGGCA",
       "TGGACACTCGCTATGAATCTCTGATTTACCCACTCTGCCAAACTCCAGCGCGGTCAGTTC") ];
  cat

let source_homolog () =
  let cat = Catalog.create ~name:"src_h" in
  let hom =
    Catalog.create_relation cat ~name:"hom" (Schema.of_names [ "acc"; "dna" ])
  in
  List.iter
    (fun (acc, d) -> Relation.insert hom [| Value.text acc; Value.text d |])
    [ ("HX001", "GCTAAAGACAAGTACATAACATACACGTCAGAACGAAACT");
      ("HX002", "CATCACCCTAAGTAACCGAATAATGCGTTCGCTCTATTGACTACGACGCG");
      ("HX003", "CTCATTCCCTTGTCGGAGAGTTATGGAACA") ];
  cat

(* src_r carries the src_h homolog of DX001's first column in two rows,
   the second lowercased and wrapped: equal once normalized *)
let source_repeat () =
  let cat = Catalog.create ~name:"src_r" in
  let hom =
    Catalog.create_relation cat ~name:"rep" (Schema.of_names [ "acc"; "dna" ])
  in
  List.iter
    (fun (acc, d) -> Relation.insert hom [| Value.text acc; Value.text d |])
    [ ("RX001", "GCTAAAGACAAGTACATAACATACACGTCAGAACGAAACT");
      ("RX002", "gctaaagacaagtacataac\natacacgtcagaacgaaact");
      ("RX003", "CTCATTCCCTTGTCGGAGAGTTATGGAACA") ];
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
        (* a duplicate link is symmetric: dedup keeps one of the two *)
        check Alcotest.int "same" 1 (List.length (Link.dedup [ l1; l2 ])));
  ]

(* the accessions owning row [row] of [relation] *)
let owners om ~relation ~row =
  let arr = Owner_map.row_owners om ~relation in
  if row < Array.length arr then arr.(row) else []

let owner_map_tests =
  [
    Alcotest.test_case "primary rows own themselves" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "self" [ "AX001" ]
          (owners om ~relation:"entry" ~row:0));
    Alcotest.test_case "secondary rows owned" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "dbxref row 1 -> AX002" [ "AX002" ]
          (owners om ~relation:"dbxref" ~row:1));
    Alcotest.test_case "unknown relation empty" `Quick (fun () ->
        let sp = Source_profile.analyze (source_a ()) in
        let om = Owner_map.build sp in
        check Alcotest.(list string) "empty" [] (owners om ~relation:"zz" ~row:0));
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

let of_column = T_relational.of_column

let prune_tests =
  [
    Alcotest.test_case "numeric excluded" `Quick (fun () ->
        let cs =
          of_column (Array.init 10 (fun i -> Value.Int i))
        in
        check Alcotest.bool "pruned" false
          (Prune.is_link_source ~prune:true cs));
    Alcotest.test_case "few distinct excluded" `Quick (fun () ->
        let cs =
          of_column [| Value.text "same"; Value.text "same" |]
        in
        check Alcotest.bool "pruned" false (Prune.is_link_source ~prune:true cs));
    Alcotest.test_case "accession-like passes" `Quick (fun () ->
        let cs =
          of_column [| Value.text "AB001"; Value.text "AB002"; Value.text "AB003" |]
        in
        check Alcotest.bool "kept" true (Prune.is_link_source ~prune:true cs));
    Alcotest.test_case "no_pruning passes numerics" `Quick (fun () ->
        let cs =
          of_column [| Value.Int 1; Value.Int 2 |]
        in
        check Alcotest.bool "kept" true (Prune.is_link_source ~prune:false cs));
    Alcotest.test_case "pruning shrinks comparison space" `Quick (fun () ->
        let ps = profiles () in
        let compared prune =
          (Xref_disc.discover ~params:{ Xref_disc.default_params with prune } ps)
            .pairs_compared
        in
        let pruned = compared true in
        let full = compared false in
        check Alcotest.bool "fewer" true (pruned < full);
        check Alcotest.bool "positive" true (pruned > 0));
    Alcotest.test_case "is_text_field" `Quick (fun () ->
        let long =
          of_column [| Value.text (String.concat " " (List.init 10 (fun _ -> "word"))) |]
        in
        check Alcotest.bool "text" true (Prune.is_text_field long));
  ]

let xref_tests =
  [
    Alcotest.test_case "decode_candidates" `Quick (fun () ->
        (* a reference stored as DB:ACCESSION links through its tail *)
        let source name cols rows =
          let cat = Catalog.create ~name in
          let r = Catalog.create_relation cat ~name:"entry" (Schema.of_names cols) in
          List.iter (fun row -> Relation.insert r (Array.of_list (List.map Value.text row))) rows;
          Source_profile.analyze cat
        in
        let tgt =
          source "tgt" [ "accession"; "descr" ]
            [ [ "P11140"; "heat shock protein" ];
              [ "P11141"; "a kinase" ];
              [ "P11142"; "membrane transporter of the outer layer" ] ]
        in
        let src =
          source "src" [ "accession"; "xref" ]
            [ [ "SA001"; "Uniprot:P11140" ]; [ "SA002"; "UniProtKB:P11141" ];
              [ "SA003"; "SP:P11142" ] ]
        in
        let r = Xref_disc.discover (Profile_list.of_profiles [ src; tgt ]) in
        check Alcotest.bool "tail found" true
          (List.exists
             (fun (l : Link.t) ->
               Objref.to_string l.src = "src:SA001"
               && Objref.to_string l.dst = "tgt:P11140")
             r.links));
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
    Alcotest.test_case "batch aligns each pair once" `Quick (fun () ->
        (* the homolog pair, aligned from the side whose id sorts first *)
        let tr = Aladin_obs.Trace.create () in
        let r =
          Aladin_obs.Trace.with_ambient tr (fun () ->
              Seq_links.discover (profiles ()))
        in
        check Alcotest.int "one alignment" 1
          (Aladin_obs.Trace.counter_value tr "seq.alignments");
        check Alcotest.int "one hit" 1 r.pairs_verified);
  ]

(* --- the delta pipeline's seq pass against a brute-force oracle ---

   Random sets of 2-4 sources, each one relation of accessions with a
   protein and a DNA column. Values come from a few shared families by
   point substitutions (so equal-length pairs with different self-scores
   abound) and small indels, one family is a tandem repeat, and values
   are dressed in mixed case and whitespace; a source may carry one
   value with a byte outside its alphabet, DNA values shorter than k and
   null cells. Field detection is the pass's own: the oracle checks
   candidate generation, alignment, normalization and the threshold. *)

type seq_case = {
  sources : (string option * string option) list list;
      (* per source, its rows' protein and DNA cells *)
  changed : int;
  min_normalized : float;
}

let seq_case_gen st =
  let pick s = s.[Random.State.int st (String.length s)] in
  let random alphabet n = String.init n (fun _ -> pick alphabet) in
  let mutate alphabet s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match Random.State.int st 40 with
        | 0 -> ()
        | 1 -> Buffer.add_char b c; Buffer.add_char b (pick alphabet)
        | n when n < 10 -> Buffer.add_char b (pick alphabet)
        | _ -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let dress s =
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        if Random.State.int st 12 = 0 then Buffer.add_char b (pick " \t\n");
        Buffer.add_char b
          (if Random.State.bool st then Char.lowercase_ascii c else c))
      s;
    Buffer.contents b
  in
  let dirty bad s =
    let i = Random.State.int st (String.length s + 1) in
    String.sub s 0 i ^ String.make 1 (pick bad)
    ^ String.sub s i (String.length s - i)
  in
  (* three random ancestors and a tandem repeat, whose k-mers recur
     within one sequence *)
  let families alphabet lo hi =
    let len () = lo + Random.State.int st (hi - lo) in
    let motif = random alphabet (2 + Random.State.int st 4) in
    String.init (len ()) (fun i -> motif.[i mod String.length motif])
    :: List.init 3 (fun _ -> random alphabet (len ()))
  in
  let prot = families Aladin_seq.Alphabet.protein 16 40 in
  let dna = families Aladin_seq.Alphabet.dna 7 36 in
  let cell fams alphabet bad ~dirty_row i =
    if Random.State.int st 15 = 0 then None
    else
      let s =
        mutate alphabet (List.nth fams (Random.State.int st (List.length fams)))
      in
      let s = if String.length s < 7 then s ^ random alphabet 7 else s in
      Some (dress (if i = dirty_row then dirty bad s else s))
  in
  let n = 2 + Random.State.int st 3 in
  let sources =
    List.init n (fun _ ->
        let rows = 11 + Random.State.int st 3 in
        (* at most one value per column leaves the alphabet, so the
           column still classifies *)
        let dp = Random.State.int st (rows + 4) in
        let dd = Random.State.int st (rows + 4) in
        List.init rows (fun i ->
            ( cell prot Aladin_seq.Alphabet.protein "XB*#1" ~dirty_row:dp i,
              cell dna Aladin_seq.Alphabet.dna "N-." ~dirty_row:dd i )))
  in
  { sources; changed = Random.State.int st n;
    min_normalized = [| 0.3; 0.5; 0.8 |].(Random.State.int st 3) }

let seq_case_print c =
  let cell = function None -> "null" | Some s -> String.escaped s in
  Printf.sprintf "changed=%d min_normalized=%g\n%s" c.changed c.min_normalized
    (String.concat "\n"
       (List.mapi
          (fun i rows ->
            Printf.sprintf "src%d: %s" i
              (String.concat "; "
                 (List.map (fun (p, d) -> cell p ^ " / " ^ cell d) rows)))
          c.sources))

let seq_case_profiles c =
  Profile_list.of_profiles
    (List.mapi
       (fun i rows ->
         let cat = Catalog.create ~name:(Printf.sprintf "src%d" i) in
         let rel =
           Catalog.create_relation cat ~name:"entry"
             (Schema.of_names [ "acc"; "pseq"; "dseq" ])
         in
         let v = function None -> Value.Null | Some s -> Value.text s in
         List.iteri
           (fun r (p, d) ->
             Relation.insert rel
               [| Value.text (Printf.sprintf "Q%d%03d" i r); v p; v d |])
           rows;
         Source_profile.analyze cat)
       c.sources)

(* every same-kind (changed, other) pair sharing at least min_hits
   distinct k-mers, aligned with the changed sequence as the query.
   Returns the links and the trace counters the pass must report; an
   other-source sequence equal to an earlier one of its kind counts no
   alignment. *)
let oracle_seq_links (params : Seq_links.params) ps ~source =
  let k = function
    | Aladin_seq.Alphabet.Protein -> 4
    | Aladin_seq.Alphabet.Dna | Aladin_seq.Alphabet.Rna -> 11
  in
  let sequences name =
    let e = Option.get (Profile_list.find ps name) in
    Seq_links.sequence_fields params (Profile_list.restrict ps [ name ])
    |> List.concat_map (fun (f : Seq_links.seq_field) ->
           let rel =
             Catalog.find_exn (Profile.catalog e.sp.profile) f.relation
           in
           let ai = Schema.index_of_exn (Relation.schema rel) f.attribute in
           List.concat
             (List.mapi
                (fun row cells ->
                  let v = cells.(ai) in
                  let s = Aladin_seq.Alphabet.normalize (Value.to_string v) in
                  if Value.is_null v || String.length s < params.min_seq_len
                  then []
                  else [ (f, row, s) ])
                (Relation.rows rel)))
  in
  let kmers kind s =
    let k = k kind in
    List.sort_uniq String.compare
      (List.init (max 0 (String.length s - k + 1)) (fun i -> String.sub s i k))
  in
  let objs (f : Seq_links.seq_field) row =
    Owner_map.object_of_row (Option.get (Profile_list.find ps f.source)).owner
      ~relation:f.relation ~row
  in
  let links = ref [] and alignments = ref 0 and hits = ref 0 in
  let consider ?(aligned = true) ((qf : Seq_links.seq_field), qrow, q)
      ((sf : Seq_links.seq_field), srow, s) =
    let shared () =
      let in_s = kmers sf.kind s in
      List.length (List.filter (fun km -> List.mem km in_s) (kmers qf.kind q))
    in
    if qf.kind = sf.kind && shared () >= 2 then begin
      if aligned then incr alignments;
      let matrix = Aladin_seq.Subst_matrix.for_kind qf.kind in
      let raw = Aladin_seq.Align.local_score ~matrix q s in
      let self = Aladin_seq.Align.self_score matrix in
      let denom =
        if String.length q <= String.length s then self q else self s
      in
      let norm =
        if denom <= 0 then 0.0 else float_of_int raw /. float_of_int denom
      in
      if norm >= params.min_normalized then begin
        incr hits;
        List.iter
          (fun src ->
            List.iter
              (fun dst ->
                if not (Objref.equal src dst) then
                  links :=
                    Link.make ~src ~dst ~kind:Link.Seq_similarity
                      ~confidence:(Float.min 1.0 norm)
                      ~evidence:
                        (Printf.sprintf "homology score=%d norm=%.2f" raw norm)
                    :: !links)
              (objs sf srow))
          (objs qf qrow)
      end
    end
  in
  let own = sequences source in
  (* another source's sequence is aligned once per distinct (kind,
     sequence): a repeat takes the hits of the first *)
  let probed = Hashtbl.create 64 and shared = ref 0 in
  List.iter
    (fun other ->
      if other <> source then
        List.iter
          (fun (((f : Seq_links.seq_field), _, s) as o) ->
            let aligned = not (Hashtbl.mem probed (f.kind, s)) in
            Hashtbl.replace probed (f.kind, s) ();
            (* only a kind the changed source has is probed *)
            if (not aligned)
               && List.exists
                    (fun ((g : Seq_links.seq_field), _, _) -> g.kind = f.kind)
                    own
            then incr shared;
            List.iter (fun c -> consider ~aligned c o) own)
          (sequences other))
    (Profile_list.sources ps);
  let links = Link.dedup !links in
  ( links,
    [ ("seq.alignments", !alignments); ("seq.links", List.length links);
      ("seq.pairs_verified", !hits); ("seq.probes_shared", !shared);
      ("seq.sequences_indexed", List.length own) ] )

let render_links links =
  List.map
    (fun (l : Link.t) ->
      let l = Link.normalized l in
      Printf.sprintf "%s|%s|%h|%s" (Objref.to_string l.src)
        (Objref.to_string l.dst) l.confidence l.evidence)
    links

let seq_state_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"discover_source equals the brute-force oracle"
         ~count:60
         (QCheck.make ~print:seq_case_print seq_case_gen)
         (fun c ->
           let ps = seq_case_profiles c in
           let source = List.nth (Profile_list.sources ps) c.changed in
           let params =
             { Seq_links.min_normalized = c.min_normalized; min_seq_len = 6 }
           in
           let show (links, counters) =
             String.concat "\n"
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters
               @ render_links links)
           in
           let expected_links, expected_counters =
             oracle_seq_links params ps ~source
           in
           let run ?pool () =
             let tr = Aladin_obs.Trace.create () in
             let links =
               Aladin_obs.Trace.with_ambient tr (fun () ->
                   Seq_links.discover_source ~params ?pool ps ~source)
             in
             show
               ( links,
                 List.map
                   (fun (k, _) -> (k, Aladin_obs.Trace.counter_value tr k))
                   expected_counters )
           in
           let expected = show (expected_links, expected_counters) in
           let actual = run () in
           let pooled = run ~pool:(Aladin_par.Pool.get ~domains:2 ()) () in
           if expected <> actual || pooled <> actual then
             QCheck.Test.fail_reportf "expected:\n%s\nactual:\n%s\npooled:\n%s"
               expected actual pooled;
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"batch discover equals discover_source folded in reverse order"
         ~count:40
         (QCheck.make ~print:seq_case_print seq_case_gen)
         (fun c ->
           let ps = seq_case_profiles c in
           let params =
             { Seq_links.min_normalized = c.min_normalized; min_seq_len = 6 }
           in
           (* batch takes the sequence whose source name sorts first as a
              cross-source pair's query: the source a fold in descending
              name order adds later *)
           let names =
             List.sort (fun a b -> String.compare b a) (Profile_list.sources ps)
           in
           let folded =
             List.concat
               (List.mapi
                  (fun i source ->
                    Seq_links.discover_source ~params
                      (Profile_list.restrict ps
                         (List.filteri (fun j _ -> j <= i) names))
                      ~source)
                  names)
           in
           let expected = render_links (Link.dedup folded)
           and actual = render_links (Seq_links.discover ~params ps).links in
           if expected <> actual then
             QCheck.Test.fail_reportf "folded:\n%s\nbatch:\n%s"
               (String.concat "\n" expected) (String.concat "\n" actual);
           true));
    Alcotest.test_case "state matches batch discovery" `Quick (fun () ->
        let ps = profiles () in
        let batch = Seq_links.discover ps in
        let fresh_a =
          Seq_links.discover_source (Profile_list.restrict ps [ "src_a" ])
            ~source:"src_a"
        in
        let fresh_b = Seq_links.discover_source ps ~source:"src_b" in
        check Alcotest.int "first add finds nothing new" 0 (List.length fresh_a);
        check Alcotest.bool "second add finds the pair" true (fresh_b <> []);
        check
          Alcotest.(list string)
          "same links"
          (List.sort String.compare (List.map link_key batch.links))
          (List.sort String.compare
             (List.map link_key (Link.dedup (fresh_a @ fresh_b)))));
    Alcotest.test_case "batch indexes every sequence column of a row" `Quick
      (fun () ->
        let ps =
          Profile_list.of_profiles
            [ Source_profile.analyze (source_two_dna ());
              Source_profile.analyze (source_homolog ()) ]
        in
        check
          Alcotest.(option (pair string string))
          "accession key" (Some ("gene", "acc"))
          (Source_profile.primary_accession
             (Option.get (Profile_list.find ps "src_d")).sp);
        check Alcotest.(list string) "two DNA columns" [ "dna1"; "dna2" ]
          (List.filter_map
             (fun (f : Seq_links.seq_field) ->
               if f.source = "src_d" then Some f.attribute else None)
             (Seq_links.sequence_fields Seq_links.default_params ps));
        let names = Profile_list.sources ps in
        let folded =
          Link.dedup
            (List.concat
               (List.mapi
                  (fun i source ->
                    Seq_links.discover_source
                      (Profile_list.restrict ps
                         (List.filteri (fun j _ -> j <= i) names))
                      ~source)
                  names))
        in
        let batch = Seq_links.discover ps in
        check Alcotest.(list string) "batch equals the folded delta pass"
          (List.map link_key folded) (List.map link_key batch.links);
        check Alcotest.bool "homolog of the first column linked" true
          (List.mem "src_d:DX001|src_h:HX001" (List.map link_key batch.links)));
    Alcotest.test_case "a repeated probe sequence is aligned once" `Quick
      (fun () ->
        let ps =
          Profile_list.of_profiles
            [ Source_profile.analyze (source_two_dna ());
              Source_profile.analyze (source_repeat ()) ]
        in
        let tr = Aladin_obs.Trace.create () in
        let fresh =
          Aladin_obs.Trace.with_ambient tr (fun () ->
              Seq_links.discover_source ps ~source:"src_d")
        in
        let count = Aladin_obs.Trace.counter_value tr in
        check Alcotest.(list string) "both rows linked"
          [ "src_d:DX001|src_r:RX001"; "src_d:DX001|src_r:RX002" ]
          (List.map link_key fresh);
        check Alcotest.int "both hits verified" 2 (count "seq.pairs_verified");
        check Alcotest.int "one alignment" 1 (count "seq.alignments");
        check Alcotest.int "one shared probe" 1 (count "seq.probes_shared"));
    Alcotest.test_case "same-source homologs are never linked" `Quick
      (fun () ->
        let ps =
          Profile_list.of_profiles [ Source_profile.analyze (source_paralogs ()) ]
        in
        check Alcotest.int "delta pass" 0
          (List.length (Seq_links.discover_source ps ~source:"src_p"));
        let batch = Seq_links.discover ps in
        check Alcotest.int "batch" 0 (List.length batch.links);
        check Alcotest.int "batch aligns no same-source pair" 0
          batch.pairs_verified);
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
        let params = { Text_links.min_cosine = 0.4 } in
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
        (* 30 referrers: over the fan-out of 25 *)
        let r = Onto_links.discover ~xrefs () in
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
            ~xrefs:[ xref a t1; xref b t1; xref a t2; xref b t2 ]
            ()
        in
        (* two shared targets make one link, stronger than one would *)
        match r.links with
        | [ l ] ->
            check (Alcotest.float 1e-9) "two targets" 0.6 l.confidence;
            check Alcotest.string "both named" "shared targets: go:GO:1, go:GO:2"
              l.evidence
        | ls -> Alcotest.failf "%d links" (List.length ls));
  ]

(* --- the delta pipeline's text pass against batch discovery ---

   Random sets of 3-5 sources, always including [go] and [go2] (so
   [go2:] sorts before [go:] while [go] sorts before [go2]: the pair's
   document order and its canonical source order disagree). Each source
   has one entry relation of accessions, a name-like symbol column drawn
   from a shared pool (so one name often sits in two sources'
   dictionaries) and, unless it is text-less, a description column of
   words from a small vocabulary mixed with pool names in any case,
   stopwords, repeats and nulls; some sources add a note relation whose
   rows join their entry's document. No source name contains ':'. For
   every pair holding the changed source, [discover_source] must return
   exactly what batch [discover] finds over the two-source restriction. *)

type text_source = {
  tname : string;
  trows : (string * string option) list;  (* symbol, description *)
  textless : bool;
  notes : (int * string) list;  (* entry row, note text *)
}

type text_case = {
  tsources : text_source list;
  tchanged : int;
  tmin_cosine : float;
}

let name_pool =
  [| "grx"; "alphakin"; "zorpin"; "betatransporterkinase"; "kinab"; "ptpn";
     "brcaf"; "mycl"; "sonichedgehog"; "wnt"; "notchy"; "ablx"; "fosb";
     "hedgehogreceptor" |]

let text_vocab =
  [| "kinase"; "domain"; "binding"; "receptor"; "membrane"; "transport";
     "repair"; "zinc"; "finger"; "signal"; "cell"; "cycle"; "the"; "of";
     "protein"; "a"; "DNA"; "Kinase"; "putative"; "nuclear"; "x" |]

let text_case_gen st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let shuffle l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
  in
  let casing w =
    match Random.State.int st 3 with
    | 0 -> String.uppercase_ascii w
    | 1 -> String.capitalize_ascii w
    | _ -> w
  in
  let text () =
    let words =
      List.init
        (6 + Random.State.int st 8)
        (fun _ ->
          if Random.State.int st 5 = 0 then casing (pick name_pool)
          else pick text_vocab)
    in
    String.concat
      (pick [| " "; " "; ", "; "; "; " (" |])
      words
  in
  let extra = shuffle [ "kegg"; "src_b"; "g"; "a"; "uniprot" ] in
  let names =
    shuffle ([ "go"; "go2" ] @ List.filteri (fun i _ -> i < 1 + Random.State.int st 3) extra)
  in
  let tsources =
    List.map
      (fun tname ->
        let rows = 5 + Random.State.int st 5 in
        let syms =
          List.filteri (fun i _ -> i < rows) (shuffle (Array.to_list name_pool))
        in
        let textless = Random.State.int st 4 = 0 in
        { tname; textless;
          trows =
            List.map
              (fun sym ->
                ( casing sym,
                  if Random.State.int st 8 = 0 then None else Some (text ()) ))
              syms;
          notes =
            (if Random.State.bool st then []
             else
               List.init (2 + Random.State.int st 6) (fun _ ->
                   (Random.State.int st rows, text ()))) })
      names
  in
  { tsources; tchanged = Random.State.int st (List.length names);
    tmin_cosine = [| 0.2; 0.35; 0.5 |].(Random.State.int st 3) }

let text_case_print c =
  Printf.sprintf "changed=%d min_cosine=%g\n%s" c.tchanged c.tmin_cosine
    (String.concat "\n"
       (List.map
          (fun s ->
            Printf.sprintf "%s%s: %s | notes: %s" s.tname
              (if s.textless then " (text-less)" else "")
              (String.concat "; "
                 (List.map
                    (fun (sym, d) ->
                      sym ^ " = " ^ Option.value d ~default:"null")
                    s.trows))
              (String.concat "; "
                 (List.map (fun (r, t) -> Printf.sprintf "%d: %s" r t) s.notes)))
          c.tsources))

let text_case_profiles c =
  Profile_list.of_profiles
    (List.mapi
       (fun i s ->
         let cat = Catalog.create ~name:s.tname in
         let acc r = Printf.sprintf "Q%d%03d" i r in
         let entry =
           Catalog.create_relation cat ~name:"entry"
             (Schema.of_names
                ([ "acc"; "sym" ] @ if s.textless then [] else [ "descr" ]))
         in
         List.iteri
           (fun r (sym, d) ->
             Relation.insert entry
               (Array.of_list
                  ([ Value.text (acc r); Value.text sym ]
                  @
                  if s.textless then []
                  else [ (match d with Some d -> Value.text d | None -> Value.Null) ])))
           s.trows;
         if s.notes <> [] then begin
           let note =
             Catalog.create_relation cat ~name:"note"
               (Schema.of_names [ "note_id"; "entry_acc"; "note_text" ])
           in
           List.iteri
             (fun k (r, t) ->
               Relation.insert note
                 [| Value.Int (k + 1); Value.text (acc r); Value.text t |])
             s.notes
         end;
         Source_profile.analyze cat)
       c.tsources)

let text_oracle_seed = 20241017

(* one case: every pair's links against batch discovery over the pair,
   at pool sizes 1 and 2; returns what the case exercised *)
let text_oracle_case c =
  let ps = text_case_profiles c in
  let sources = Profile_list.sources ps in
  let source = List.nth sources c.tchanged in
  let params = { Text_links.min_cosine = c.tmin_cosine } in
  let pairs =
    List.filter_map
      (fun other ->
        if other = source then None
        else Some (min source other, max source other))
      sources
  in
  let expected =
    List.map
      (fun (a, b) ->
        ((a, b), Text_links.discover ~params (Profile_list.restrict ps [ a; b ])))
      pairs
  in
  let documents =
    List.fold_left
      (fun acc s ->
        acc
        + List.length
            (Text_links.object_documents (Profile_list.restrict ps [ s ])))
      0 sources
  in
  let show_pairs pairs =
    String.concat "\n"
      (List.concat_map
         (fun ((a, b), links) ->
           Printf.sprintf "pair %s %s" a b :: render_links links)
         (List.sort compare pairs))
  in
  let mentions pairs =
    List.fold_left
      (fun acc (_, links) ->
        acc
        + List.length
            (List.filter (fun (l : Link.t) -> l.kind = Link.Entity_mention) links))
      0 pairs
  in
  let expected_pairs =
    List.map (fun (p, (r : Text_links.result)) -> (p, r.links)) expected
  in
  let expect =
    Printf.sprintf "documents=%d mentions=%d\n%s" documents
      (mentions expected_pairs) (show_pairs expected_pairs)
  in
  let run domains =
    let tr = Aladin_obs.Trace.create () in
    let pairs =
      Aladin_obs.Trace.with_ambient tr (fun () ->
          Text_links.discover_source ~params
            ~pool:(Aladin_par.Pool.get ~domains ())
            ps ~source)
    in
    Printf.sprintf "documents=%d mentions=%d\n%s"
      (Aladin_obs.Trace.counter_value tr "text.documents")
      (mentions pairs) (show_pairs pairs)
  in
  let one = run 1 and two = run 2 in
  if expect <> one || one <> two then
    QCheck.Test.fail_reportf "expected:\n%s\n1 domain:\n%s\n2 domains:\n%s"
      expect one two;
  (* coverage: a name two sources of one pair define, a text-less source
     in a pair, and the kinds of links found *)
  let syms s =
    List.map (fun (sym, _) -> String.lowercase_ascii sym)
      (List.find (fun t -> t.tname = s) c.tsources).trows
  in
  let clash =
    List.exists
      (fun (a, b) -> List.exists (fun n -> List.mem n (syms b)) (syms a))
      pairs
  in
  let textless =
    List.exists
      (fun (a, b) ->
        List.exists
          (fun t -> (t.tname = a || t.tname = b) && t.textless)
          c.tsources)
      pairs
  in
  let kinds =
    List.concat_map
      (fun (_, (r : Text_links.result)) ->
        List.map (fun (l : Link.t) -> l.kind) r.links)
      expected
  in
  (clash, textless, List.mem Link.Text_similarity kinds,
   List.mem Link.Entity_mention kinds)

let text_pass_tests =
  [
    Alcotest.test_case "discover_source equals batch discovery per pair" `Quick
      (fun () ->
        let covered = ref [] in
        let test =
          QCheck.Test.make ~name:"discover_source equals batch per pair"
            ~count:80
            (QCheck.make ~print:text_case_print text_case_gen)
            (fun c ->
              let clash, textless, text, mention = text_oracle_case c in
              covered := (clash, textless, text, mention) :: !covered;
              true)
        in
        QCheck.Test.check_exn
          ~rand:(Random.State.make [| text_oracle_seed |])
          test;
        let some f = List.exists f !covered in
        check Alcotest.bool "a name both sources of a pair define" true
          (some (fun (x, _, _, _) -> x));
        check Alcotest.bool "a text-less source" true
          (some (fun (_, x, _, _) -> x));
        check Alcotest.bool "cosine links" true (some (fun (_, _, x, _) -> x));
        check Alcotest.bool "mention links" true (some (fun (_, _, _, x) -> x)));
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
    ("linkdisc.text_pass", text_pass_tests);
    ("linkdisc.count_by_kind", count_by_kind_tests);
    ("linkdisc.onto_links", onto_tests);
  ]
