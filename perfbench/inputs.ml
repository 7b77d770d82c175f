(* Input generation. The seed is the only knob; the program under test
   sees nothing but the files written here. Everything is generated at
   most once per corpus seed and build of the benchmark into
   [_perfbench/build-<digest>/seed-N/], in a child process, outside
   every timed region; how long it took is reported but never counted
   in a metric. Keying the cache by the build means that a store
   written by one build of the program is never loaded by another.

   The corpus is the 10x universe of the pipeline bench's headline run
   (600 proteins, 300 genes, 250 structures, 100 diseases, 160 terms,
   80 families): 8 sources and about 10k rows. *)

open Aladin
module Dg = Aladin_datagen
module Rel = Aladin_relational
module Serve = Aladin_serve
open Common

let universe =
  {
    Dg.Universe.default_params with
    n_proteins = 600;
    n_genes = 300;
    n_structures = 250;
    n_diseases = 100;
    n_terms = 160;
    n_families = 80;
  }

let corpus_params seed = { Dg.Corpus.default_params with seed; universe }

(* the source the delta workload holds out and adds, and the one it edits *)
let held_out = "pdb"
let edited = "uniprot"

(* --seed N generates corpus N mod [corpora]; Refs holds the
   seed-commit reference of every one of them. *)
let corpora = 64

(* the digest of the running benchmark build, which links the program *)
let build_id = lazy (Digest.to_hex (Digest.file Sys.executable_name))

type t = { seed : int;  (** the corpus seed *) dir : string }

let create ~seed =
  let seed = seed mod corpora in
  {
    seed;
    dir =
      List.fold_left Filename.concat work_root
        [ "build-" ^ Lazy.force build_id; Printf.sprintf "seed-%d" seed ];
  }

let path t name = Filename.concat t.dir name
let source_dir t name = Filename.concat (path t "sources") name
let edit_dir t = path t "uniprot_edit"
let base_store t = path t "base_store"
let full_store t = path t "full_store"

(* --- the source list, with the corpus shape --- *)

type source = { name : string; rows : int; bytes : int }

let sources t =
  List.map
    (fun l ->
      Scanf.sscanf l "%s %d %d" (fun name rows bytes -> { name; rows; bytes }))
    (read_lines (path t "sources.txt"))

(* Import one generated dump through the program's public importer. *)
let import name dir =
  match Aladin_formats.Import.import_path ~name dir with
  | Ok imp -> imp
  | Error e ->
      raise
        (Child_failed
           (Printf.sprintf "import %s: %s" name
              (Aladin_resilience.Import_error.to_string e)))

let catalog name dir = (import name dir).Aladin_formats.Import.catalog

(* --- gold standard, as canonical pair keys per link kind --- *)

let gold_kinds = [ "xref"; "seq"; "duplicate" ]

let gold_file t kind = path t ("gold-" ^ kind ^ ".txt")

let gold t kind = read_lines (gold_file t kind)

(* --- references: what a correct run must reproduce --- *)

type reference = {
  digest : string;  (** MD5 of the link CSV *)
  links : int;
  fks : int;
  per_kind : (string * int) list;
}

let kind_names =
  List.map Aladin_links.Link.kind_name
    Aladin_links.Link.
      [ Xref; Seq_similarity; Text_similarity; Shared_term; Entity_mention; Duplicate ]

let reference_of_warehouse w =
  let links = Warehouse.links w in
  let csv = Aladin_access.Link_export.to_csv links in
  let count k =
    List.length
      (List.filter
         (fun (l : Aladin_links.Link.t) -> Aladin_links.Link.kind_name l.kind = k)
         links)
  in
  {
    digest = Digest.to_hex (Digest.string csv);
    links = List.length links;
    fks =
      List.fold_left
        (fun acc s ->
          match Warehouse.profile w s with
          | Some p -> acc + List.length p.Aladin_discovery.Source_profile.fks
          | None -> acc)
        0 (Warehouse.sources w);
    per_kind = List.map (fun k -> (k, count k)) kind_names;
  }

(* --- the seeded edit of [uniprot]: description typos, point
   mutations in sequences, a few dropped comment rows --- *)

let edit_catalog ~seed cat =
  let rng = Dg.Rng.create (seed + 7919) in
  let total = Rel.Catalog.total_rows cat in
  let editable r =
    let names = Rel.Schema.names (Rel.Relation.schema r) in
    List.mem "description" names || List.mem "seq_text" names
    || List.mem "comment_text" names
  in
  let editable_rows =
    List.fold_left
      (fun acc r -> if editable r then acc + Rel.Relation.cardinality r else acc)
      0 (Rel.Catalog.relations cat)
  in
  let p = Float.min 1.0 (0.2 *. float_of_int total /. float_of_int (max 1 editable_rows)) in
  let out = Rel.Catalog.create ~name:(Rel.Catalog.name cat) in
  let changed = ref 0 in
  List.iter
    (fun r ->
      let schema = Rel.Relation.schema r in
      let idx n = Rel.Schema.index_of schema n in
      let nr = Rel.Catalog.create_relation out ~name:(Rel.Relation.name r) schema in
      let text row i = Option.value ~default:"" (Rel.Value.as_text row.(i)) in
      let typo row i = row.(i) <- Rel.Value.text (Dg.Corrupt.value rng ~rate:1.0 (text row i)) in
      Rel.Relation.iter_rows
        (fun row ->
          let row = Array.copy row in
          if not (editable r && Dg.Rng.chance rng p) then Rel.Relation.insert nr row
          else begin
            incr changed;
            match (idx "description", idx "seq_text", idx "comment_text") with
            | Some i, _, _ -> typo row i; Rel.Relation.insert nr row
            | None, Some i, _ ->
                let s = Dg.Seq_gen.mutate rng ~rate:0.05 (text row i) in
                row.(i) <- Rel.Value.text s;
                (match idx "seq_length" with
                | Some j -> row.(j) <- Rel.Value.of_string (string_of_int (String.length s))
                | None -> ());
                Rel.Relation.insert nr row
            (* one edited comment in ten is dropped instead: nothing
               references comment rows *)
            | None, None, Some _ when Dg.Rng.chance rng 0.1 -> ()
            | None, None, Some i -> typo row i; Rel.Relation.insert nr row
            | None, None, None -> Rel.Relation.insert nr row
          end)
        r)
    (Rel.Catalog.relations cat);
  List.iter (Rel.Catalog.declare out) (Rel.Catalog.constraints cat);
  (out, !changed)

let changed_rows t = int_of_string (String.trim (read_file (path t "edit.txt")))

(* --- the serve workload's targets --- *)

type target = { route : string; target : string }

let targets t =
  List.map
    (fun l ->
      match String.index_opt l '\t' with
      | Some i ->
          { route = String.sub l 0 i; target = String.sub l (i + 1) (String.length l - i - 1) }
      | None -> raise (Child_failed ("bad target line " ^ l)))
    (read_lines (path t "targets.txt"))

let pct = Serve.Http.pct_encode

let name_of (v : Aladin_access.Browser.view) =
  let is_name (k, v) =
    v <> ""
    && (k = "name"
       || String.length k > 5
          && String.sub k (String.length k - 5) 5 = "_name")
  in
  Option.map snd (List.find_opt is_name v.fields)

let make_targets eng =
  let objs = Engine.objects eng in
  let per_object route f = List.filter_map (fun o -> Option.map (fun x -> { route; target = x }) (f o)) objs in
  let objects =
    per_object "object" (fun (o : Aladin_links.Objref.t) ->
        Some (Printf.sprintf "/object/%s/%s" o.source (pct o.accession)))
  in
  let resolves =
    per_object "resolve" (fun (o : Aladin_links.Objref.t) ->
        Some ("/resolve?accession=" ^ pct o.accession))
  in
  let searches =
    per_object "search" (fun o ->
        Option.bind (Engine.view eng o) (fun v ->
            Option.map (fun n -> "/search?q=" ^ pct n) (name_of v)))
    |> List.sort_uniq compare
  in
  let queries =
    List.concat_map
      (fun cat ->
        let src = Rel.Catalog.name cat in
        List.concat_map
          (fun r ->
            let rel = src ^ "." ^ Rel.Relation.name r in
            [ "SELECT COUNT(*) FROM " ^ rel; "SELECT * FROM " ^ rel ])
          (Rel.Catalog.relations cat))
      (Warehouse.catalogs (Engine.warehouse eng))
    |> List.map (fun sql -> { route = "query"; target = "/query?sql=" ^ pct sql })
  in
  let links =
    List.map (fun k -> { route = "links"; target = "/links?kind=" ^ k }) kind_names
  in
  objects @ searches @ resolves @ queries @ links

let request target =
  match Serve.Http.parse_request (Printf.sprintf "GET %s HTTP/1.1\r\n" target) with
  | Ok r -> r
  | Error msg -> raise (Child_failed msg)

(* --- generation steps, each run once per seed --- *)

let integrate_plain names_dirs =
  Warehouse.integrate (List.map (fun (n, d) -> catalog n d) names_dirs)

let save w dir =
  rm_rf dir;
  match Warehouse.save_dir w dir with
  | Ok () -> ()
  | Error e -> raise (Child_failed ("save_dir: " ^ e))

let dump cat dir =
  rm_rf dir;
  mkdir_p (Filename.dirname dir);
  match Aladin_formats.Dump.save_dir cat dir with
  | Ok () -> ()
  | Error e -> raise (Child_failed ("Dump.save_dir: " ^ e))

let gen_corpus t =
  let corpus = Dg.Corpus.generate (corpus_params t.seed) in
  let lines =
    List.map
      (fun cat ->
        let name = Rel.Catalog.name cat in
        let dir = source_dir t name in
        dump cat dir;
        Printf.sprintf "%s %d %d" name (Rel.Catalog.total_rows cat) (du dir))
      corpus.catalogs
  in
  let keys pairs =
    String.concat "\n"
      (List.sort_uniq compare (List.map (fun (a, b) -> Aladin_eval.Metrics.pair_key a b) pairs))
  in
  write_file (gold_file t "xref") (keys corpus.gold.xrefs);
  write_file (gold_file t "seq") (keys (Dg.Gold.family_pairs corpus.universe corpus.gold));
  write_file (gold_file t "duplicate") (keys (Dg.Gold.duplicate_pairs corpus.gold));
  let cat = List.find (fun c -> Rel.Catalog.name c = edited) corpus.catalogs in
  let ed, changed = edit_catalog ~seed:t.seed cat in
  dump ed (edit_dir t);
  write_file (path t "edit.txt") (string_of_int changed);
  write_file (path t "sources.txt") (String.concat "\n" lines ^ "\n")

let source_dirs t = List.map (fun s -> (s.name, source_dir t s.name)) (sources t)

(* every source, integrated and saved: the store serve loads *)
let gen_full t = save (integrate_plain (source_dirs t)) (full_store t)

let base_sources t = List.filter (fun (n, _) -> n <> held_out) (source_dirs t)

(* the delta workload's starting point: every source but [pdb] *)
let gen_base t = save (integrate_plain (base_sources t)) (base_store t)

(* The sources, in warehouse order, after the delta workload's ops:
   [update_source] re-adds the replaced source at the end. *)
let final_order t =
  List.filter (fun n -> n <> edited) (List.map fst (base_sources t)) @ [ held_out; edited ]

(* the delta workload's final source set, in the order the delta
   leaves the warehouse *)
let final_sources t =
  let dirs = source_dirs t in
  List.map (fun n -> (n, if n = edited then edit_dir t else List.assoc n dirs)) (final_order t)

let gen_targets t =
  let w, _ = Warehouse.load_dir (full_store t) in
  let eng = Engine.create w in
  let service = Serve.Service.create ~pool:(Aladin_par.Pool.create ~domains:1 ()) eng in
  let ok { route; target } =
    route <> "query"
    || (Serve.Service.handle service (request target)).Serve.Http.status = 200
  in
  let ts = List.filter ok (make_targets eng) in
  write_file (path t "targets.txt")
    (String.concat "" (List.map (fun x -> x.route ^ "\t" ^ x.target ^ "\n") ts))

let steps =
  [
    ("corpus", [], gen_corpus);
    ("full", [ "corpus" ], gen_full);
    ("base", [ "corpus" ], gen_base);
    ("targets", [ "full" ], gen_targets);
  ]

(* Make sure [step] (and what it builds on) exists for this seed;
   returns the seconds spent generating, 0 when all was cached. *)
let rec ensure t step =
  let marker = path t (step ^ ".done") in
  if Sys.file_exists marker then 0.0
  else
    let _, deps, gen = List.find (fun (n, _, _) -> n = step) steps in
    let before = List.fold_left (fun acc d -> acc +. ensure t d) 0.0 deps in
    mkdir_p t.dir;
    let (), secs = timed (fun () -> in_child (fun () -> gen t)) in
    write_file marker "";
    before +. secs
