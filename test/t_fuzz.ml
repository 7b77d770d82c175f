(* Robustness: parsers and loaders over arbitrary input must either
   succeed or fail with their documented exception — never crash with
   anything else, never loop. *)

open Aladin_formats
open Aladin_access

let no_crash name count gen f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count gen (fun input ->
         match f input with
         | _ -> true
         | exception Xml.Parse_error _ -> true
         | exception Sql_parser.Parse_error _ -> true
         | exception Sql_lexer.Lex_error _ -> true
         | exception Invalid_argument _ -> true))

(* printable-ish strings with structure-relevant characters *)
let textish =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 200)
    (QCheck.Gen.oneofl
       [ 'a'; 'b'; 'Z'; '0'; '9'; ' '; '\n'; '\t'; '<'; '>'; '/'; '='; '"';
         '\''; '&'; ';'; ':'; ','; '.'; '('; ')'; '%'; '_'; '-'; '#'; '['; ']' ])

let sql_tokens =
  QCheck.make
    QCheck.Gen.(
      let word =
        oneofl
          [ "SELECT"; "FROM"; "WHERE"; "JOIN"; "ON"; "AND"; "OR"; "NOT";
            "GROUP"; "BY"; "ORDER"; "LIMIT"; "IN"; "IS"; "NULL"; "LIKE";
            "COUNT"; "("; ")"; "*"; ","; "="; "<>"; "t"; "a"; "b"; "t.a";
            "'x'"; "42"; "3.5" ]
      in
      map (String.concat " ") (list_size (int_range 0 15) word))

let fuzz_tests =
  [
    no_crash "xml parser never crashes" 500 textish (fun s -> Xml.parse s);
    no_crash "swissprot parser total" 300 textish (fun s -> Swissprot.parse s);
    no_crash "genbank parser total" 300 textish (fun s -> Genbank.parse s);
    no_crash "fasta parser total" 300 textish (fun s -> Fasta.parse s);
    no_crash "obo parser total" 300 textish (fun s -> Obo.parse s);
    no_crash "pdb parser total" 300 textish (fun s -> Pdb_flat.parse s);
    no_crash "csv reader total" 300 textish (fun s -> Aladin_relational.Csv.read_string s);
    no_crash "sniff total" 300 textish (fun s -> Import.import_string ~name:"x" s);
    no_crash "sql parser structured fuzz" 500 sql_tokens (fun s -> Sql_parser.parse s);
    no_crash "sql lexer raw fuzz" 300 textish (fun s -> Sql_lexer.tokenize s);
    no_crash "dump constraints total" 300 textish (fun s ->
        Dump.catalog_of_members ~name:"x" [ ("constraints.txt", s) ]);
  ]

(* --- the result-returning import API: NO exception is acceptable --- *)

let never_raises name count gen f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count gen (fun input ->
         match f input with Ok _ | Error _ -> true))

let import_api_fuzz =
  [
    never_raises "import_string total on garbage" 500 textish (fun s ->
        Import.import_string ~name:"fuzz" s);
    never_raises "run report deserialize total" 300 textish (fun s ->
        match Aladin_resilience.Run_report.deserialize s with
        | Some r -> Ok r
        | None -> Error ());
  ]

(* --- truncation and corruption of real documents, per importer ---

   Each valid sample is cut at arbitrary byte offsets and fed through the
   result-based importer: every outcome must be an [Ok] (possibly with
   recovered record errors) or a typed [Error] — never an exception. *)

let truncated name doc =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:(name ^ " truncated never raises") ~count:120
       QCheck.(int_bound (String.length doc))
       (fun cut ->
         match Import.import_string ~name (String.sub doc 0 cut) with
         | Ok _ | Error _ -> true))

let check = Alcotest.check

module Import_error = Aladin_resilience.Import_error

let sample_csv = "id,name,organism\nP1,kinase,human\nP2,lyase,mouse\n"

let ragged_csv = "id,name,organism\nP1,kinase,human\nP2,lyase\nP3,ligase,yeast\n"

let importer_robustness =
  [
    truncated "swissprot" T_formats.sample_swissprot;
    truncated "embl" T_formats.embl_sample;
    truncated "genbank" T_formats.genbank_sample;
    truncated "fasta" ">A1 first\nACGTACGT\n>B2 second\nTTTTCCCC\n";
    truncated "obo" T_formats.obo_sample;
    truncated "pdb" T_formats.pdb_sample;
    truncated "csv" sample_csv;
    Alcotest.test_case "csv ragged row becomes record error" `Quick (fun () ->
        match Import.import_string ~name:"csv" ragged_csv with
        | Ok im ->
            check Alcotest.int "one record error" 1
              (List.length im.record_errors);
            check Alcotest.int "two rows kept" 2
              (Aladin_relational.Catalog.total_rows im.catalog)
        | Error e -> Alcotest.fail (Import_error.to_string e));
    Alcotest.test_case "unrecognized input is a typed error" `Quick (fun () ->
        match Import.import_string ~name:"junk" "\000\001\002 nothing" with
        | Error e ->
            check Alcotest.bool "unrecognized" true
              (e.kind = Import_error.Unrecognized)
        | Ok _ -> Alcotest.fail "garbage imported");
    Alcotest.test_case "empty input is a typed error" `Quick (fun () ->
        match Import.import_string ~name:"empty" "" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "empty imported");
  ]

(* structural property: render . parse = id on generated XML trees *)
let xml_gen =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "item"; "node" ] in
  let attr_val =
    string_size ~gen:(oneofl [ 'x'; 'y'; '&'; '<'; '"'; ' ' ]) (int_range 0 6)
  in
  let text_node =
    map
      (fun s -> Xml.Text s)
      (string_size ~gen:(oneofl [ 'h'; 'i'; '&'; '>'; ' ' ]) (int_range 1 8))
  in
  let rec node depth =
    if depth = 0 then text_node
    else
      frequency
        [ (1, text_node);
          (2,
           map3
             (fun tag attrs children -> Xml.Element { tag; attrs; children })
             tag
             (list_size (int_range 0 2)
                (map2 (fun k v -> (k, v)) (oneofl [ "k1"; "k2" ]) attr_val))
             (list_size (int_range 0 3) (node (depth - 1)))) ]
  in
  map
    (fun children -> Xml.Element { tag = "root"; attrs = []; children })
    (list_size (int_range 0 4) (node 2))

(* consecutive text nodes merge on reparse, so compare text-normalized *)
let rec normalize = function
  | Xml.Text s -> Xml.Text s
  | Xml.Element { tag; attrs; children } ->
      (* merge every adjacent text run, then drop whitespace-only runs —
         matching what serialization loses *)
      let merged =
        List.fold_left
          (fun acc child ->
            match (normalize child, acc) with
            | Xml.Text t, Xml.Text prev :: rest -> Xml.Text (prev ^ t) :: rest
            | n, _ -> n :: acc)
          [] children
      in
      let kept =
        List.filter
          (function Xml.Text t -> String.trim t <> "" | Xml.Element _ -> true)
          (List.rev merged)
      in
      Xml.Element { tag; attrs; children = kept }

let roundtrip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"xml render/parse roundtrip" ~count:200
         (QCheck.make xml_gen)
         (fun tree ->
           normalize (Xml.parse (Xml.render tree)) = normalize tree));
  ]

(* --- the storage layer's decoders must be total ---

   A store member read off disk can contain literally anything (torn
   writes, bit rot); the codecs classify, they never throw. *)

module Records = Aladin_store.Records
module Corrupt = Aladin_datagen.Corrupt

let bytes_ish =
  QCheck.string_gen_of_size
    (QCheck.Gen.int_range 0 300)
    (QCheck.Gen.map Char.chr (QCheck.Gen.int_range 0 255))

(* a pair store over three sources, every link kind and a few
   correspondences; field values exercise the tab/newline escaping *)
let pair_store_arb =
  let module L = Aladin_links in
  let open QCheck.Gen in
  let source = oneofl [ "a"; "b"; "c" ] in
  let field = oneofl [ "x"; "y\tz"; "w\\n"; "multi\nline"; "" ] in
  let obj =
    map2
      (fun s acc -> L.Objref.make ~source:s ~relation:"r" ~accession:acc)
      source field
  in
  let kind =
    oneofl
      [ L.Link.Xref; L.Link.Seq_similarity; L.Link.Text_similarity;
        L.Link.Shared_term; L.Link.Entity_mention; L.Link.Duplicate ]
  in
  let link =
    map (fun (src, dst, kind, (c, ev)) ->
        L.Link.make ~src ~dst ~kind ~confidence:(float_of_int c /. 7.) ~evidence:ev)
      (quad obj obj kind (pair (int_bound 7) field))
  in
  let corr =
    map (fun (s, d, (m, f)) ->
        { L.Xref_disc.src_source = s; src_relation = "r"; src_attribute = f;
          dst_source = d; dst_relation = "r"; dst_attribute = "acc";
          matches = m; match_frac = float_of_int m /. 10.; encoded = m mod 2 = 0 })
      (triple source source (pair (int_bound 10) field))
  in
  (* the links and correspondences as records of an older metadata.txt,
     the document [Pair_store.seed_missing] seeds a store from *)
  let meta links corrs =
    let module S = Aladin_store.Serial in
    String.concat "\n"
      (List.map
         (fun (l : L.Link.t) ->
           S.record
             [ "link"; l.src.source; l.src.relation; l.src.accession;
               l.dst.source; l.dst.relation; l.dst.accession;
               L.Link.kind_name l.kind; S.float_to_string l.confidence;
               l.evidence ])
         links
      @ List.map
          (fun (c : L.Xref_disc.correspondence) ->
            S.record
              [ "corr"; c.src_source; c.src_relation; c.src_attribute;
                c.dst_source; c.dst_relation; c.dst_attribute;
                string_of_int c.matches; S.float_to_string c.match_frac;
                string_of_bool c.encoded ])
          corrs)
  in
  let gen =
    map3
      (fun links corrs cands ->
        let module P = Aladin.Pair_store in
        let ps = P.create () in
        assert (P.seed_missing ps (meta links corrs) = 0);
        (* at most six pairs over three sources *)
        List.iteri
          (fun i ((a, b), e) ->
            P.set ps a b { e with P.dup_candidates = List.nth cands i })
          (P.pairs ps);
        ps)
      (list_size (int_range 1 30) link)
      (list_size (int_range 0 5) corr)
      (list_repeat 6 (int_bound 1000))
  in
  QCheck.make ~print:Aladin.Pair_store.save gen

(* saved pair stores, whole or cut at any byte *)
let pairs_doc_ish =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun ps cut ->
          let doc = Aladin.Pair_store.save ps in
          String.sub doc 0 (cut mod (String.length doc + 1)))
        (QCheck.gen pair_store_arb) nat)

(* --- the two commit-record readers: the journal's plan header and the
   store's MANIFEST, each read back from arbitrary bytes on disk --- *)

module Journal = Aladin_store.Journal
module Snapshot = Aladin_store.Snapshot
module Crc32 = Aladin_store.Crc32

(* these cases draw from one fixed seed, so a tier-1 run is repeatable *)
let fixed_seed test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) test

let write_bytes path doc =
  let oc = open_out_bin path in
  output_string oc doc;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  doc

(* a valid document, bit-flipped at one offset or cut at one *)
let damaged valid =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun byte bit ->
            Corrupt.flip_bit_at valid ~byte:(byte mod String.length valid) ~bit)
          nat (int_bound 7);
        map
          (fun cut -> Corrupt.truncate_at valid (cut mod (String.length valid + 1)))
          nat;
      ])

let journal_meta =
  [ ("config", "0badc0de"); ("sources", "1"); ("source.0.name", "uni prot");
    ("source.0.path", "dir\twith tab\nand newline=x") ]

(* one journal directory whose JOURNAL each case overwrites *)
let journal_dir, valid_journal =
  let dir = Tmp.path "jplan" in
  (match Journal.create dir ~meta:journal_meta with
  | Ok () -> ()
  | Error e -> failwith e);
  (dir, read_bytes (Filename.concat dir "JOURNAL"))

let plan_of doc =
  write_bytes (Filename.concat journal_dir "JOURNAL") doc;
  Journal.plan journal_dir

(* what Snapshot.save accepts as member paths, stated independently of
   it: relative, no empty/./.. segment, no duplicate, and no path under
   another member's path *)
let save_would_accept paths =
  List.for_all
    (fun p ->
      p <> "" && p.[0] <> '/'
      && List.for_all
           (fun seg -> seg <> "" && seg <> "." && seg <> "..")
           (String.split_on_char '/' p))
    paths
  && List.length (List.sort_uniq compare paths) = List.length paths
  && not
       (List.exists
          (fun p ->
            List.exists (String.starts_with ~prefix:(p ^ "/")) paths)
          paths)

(* one store, saved once, whose MANIFEST each case overwrites *)
let store_dir, valid_manifest =
  let dir = Tmp.path "mfst" in
  (match
     Snapshot.save dir
       [ { path = "a/recs.txt"; kind = Records; content = "alpha\nbeta\n" };
         { path = "a/table.csv"; kind = Csv; content = "id,name\n1,x\n" };
         { path = "tab\there/blob.txt"; kind = Records; content = "z\n" } ]
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  (dir, read_bytes (Filename.concat dir "MANIFEST"))

(* the manifest's lines up to its self-CRC line, sealed again with a
   correct self-CRC, so the parser beyond the checksum is reached *)
let reseal doc =
  let body =
    String.split_on_char '\n' doc
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"crc\t" l))
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""
  in
  body ^ "crc\t" ^ Crc32.to_hex (Crc32.string body) ^ "\n"

(* a member line of the valid manifest given a path save refuses *)
let hostile_member =
  QCheck.Gen.(
    map2
      (fun i path ->
        let lines = String.split_on_char '\n' valid_manifest in
        let members =
          List.filter (String.starts_with ~prefix:"member\t") lines
        in
        let victim = List.nth members (i mod List.length members) in
        List.map
          (fun l ->
            if l <> victim then l
            else
              match String.split_on_char '\t' l with
              | _ :: _ :: rest -> String.concat "\t" ("member" :: path :: rest)
              | _ -> l)
          lines
        |> String.concat "\n")
      nat
      (oneofl
         [ "../../victim.txt"; "a/../../../secret.csv"; "/etc/passwd"; "";
           "."; ".."; "a//recs.txt"; "a/./recs.txt"; "a/recs.txt"; "a";
           "a/recs.txt/x" ]))

let verify_of doc =
  write_bytes (Filename.concat store_dir "MANIFEST") doc;
  match Snapshot.verify store_dir with
  | Ok report ->
      save_would_accept
        (List.map
           (fun (m : Aladin_store.Load_report.member) -> m.path)
           report.members)
  | Error _ -> true

let commit_record_fuzz =
  [
    fixed_seed
      (QCheck.Test.make ~name:"journal plan over arbitrary bytes" ~count:300
         (QCheck.oneof [ bytes_ish; textish ])
         (fun doc -> match plan_of doc with Ok _ | Error _ -> true));
    fixed_seed
      (QCheck.Test.make
         ~name:"journal plan over a damaged JOURNAL is the plan or Error"
         ~count:400
         (QCheck.make ~print:(Printf.sprintf "%S") (damaged valid_journal))
         (fun doc ->
           match plan_of doc with
           | Ok meta -> meta = journal_meta
           | Error _ -> true));
    fixed_seed
      (QCheck.Test.make ~name:"manifest verify over arbitrary bytes"
         ~count:300
         QCheck.(pair (oneof [ bytes_ish; textish ]) bool)
         (fun (doc, sealed) -> verify_of (if sealed then reseal doc else doc)));
    fixed_seed
      (QCheck.Test.make
         ~name:"manifest verify over a damaged MANIFEST names no bad path"
         ~count:400
         (QCheck.make
            ~print:(fun (doc, sealed) ->
              Printf.sprintf "%S (re-sealed %b)" doc sealed)
            QCheck.Gen.(
              pair (oneof [ damaged valid_manifest; hostile_member ]) bool))
         (fun (doc, sealed) -> verify_of (if sealed then reseal doc else doc)));
  ]

let store_codec_fuzz =
  [
    no_crash "records strict decode total" 500 bytes_ish (fun s ->
        Records.decode s);
    no_crash "records salvage total" 500 bytes_ish (fun s ->
        Records.decode_salvage s);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"records salvage of intact encode is lossless"
         ~count:300 textish (fun doc ->
           match Records.decode_salvage (Records.encode doc) with
           | Some (_, 0) -> true
           | Some (_, _) | None -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"records bit flip never crashes, strict decode refuses"
         ~count:300
         QCheck.(pair textish (pair small_nat small_nat))
         (fun (doc, (byte, bit)) ->
           let stored = Records.encode doc in
           let torn =
             Corrupt.flip_bit_at stored ~byte:(byte mod String.length stored)
               ~bit
           in
           (* a flip either lands where it changes bytes (strict decode
              must refuse) or the codec still classifies it — salvage
              must stay total either way *)
           let _ = Records.decode_salvage torn in
           torn = stored || Records.decode torn = None));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"repository salvaging load total" ~count:300
         textish (fun s ->
           (* no exception at all; at most the lost header and every line
              count as dropped *)
           let read = Aladin_metadata.Repository.read s in
           let lines =
             List.length (List.filter (( <> ) "") (String.split_on_char '\n' s))
           in
           read.dropped >= 0
           && read.dropped <= lines + 1
           && List.length read.reports <= lines));
    no_crash "feedback salvaging load total" 300 textish (fun s ->
        Aladin.Feedback.load_salvaging s);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pair store load total" ~count:500
         (QCheck.oneof [ bytes_ish; textish; pairs_doc_ish ])
         (fun s ->
           ignore (Aladin.Pair_store.load s);
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"pair store load keeps every record but a garbled line"
         ~count:300
         QCheck.(triple pair_store_arb small_nat bytes_ish)
         (fun (ps, i, junk) ->
           let module P = Aladin.Pair_store in
           let lines = String.split_on_char '\n' (P.save ps) in
           let lines = List.filter (( <> ) "") lines in
           let i = i mod List.length lines in
           (* no record kind starts with '#', and the junk stays one line *)
           let junk = "#" ^ String.map (fun c -> if c = '\n' then ' ' else c) junk in
           let garbled = List.mapi (fun j l -> if j = i then junk else l) lines in
           let items ls =
             List.filter
               (fun l ->
                 String.starts_with ~prefix:"plink\t" l
                 || String.starts_with ~prefix:"pcorr\t" l)
               ls
             |> List.sort compare
           in
           let loaded, dropped = P.load (String.concat "\n" garbled) in
           dropped = 1
           && items (String.split_on_char '\n' (P.save loaded))
              = items (List.filteri (fun j _ -> j <> i) lines)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"truncate_at is a prefix" ~count:200
         QCheck.(pair textish small_nat)
         (fun (s, n) ->
           let t = Corrupt.truncate_at s n in
           String.length t <= String.length s
           && t = String.sub s 0 (String.length t)));
  ]
  @ commit_record_fuzz

let tests =
  [ ("fuzz.parsers", fuzz_tests);
    ("fuzz.import_api", import_api_fuzz);
    ("fuzz.importer_robustness", importer_robustness);
    ("fuzz.store_codecs", store_codec_fuzz);
    ("fuzz.xml_roundtrip", roundtrip_tests) ]
