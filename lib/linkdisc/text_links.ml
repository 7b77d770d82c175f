open Aladin_relational
open Aladin_discovery
module Tx = Aladin_text
module Sq = Aladin_seq
module Pool = Aladin_par.Pool

type params = { min_cosine : float }

let default_params = { min_cosine = 0.5 }

type result = {
  links : Link.t list;
  documents : int;
  mention_links : int;
}

let is_sequence_value s =
  Sq.Alphabet.classify ~min_len:20 s <> None

(* concatenated text fields per owning primary object *)
let object_documents profiles =
  let docs : (string, Buffer.t) Hashtbl.t = Hashtbl.create 256 in
  let refs : (string, Objref.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (e : Profile_list.entry) ->
      let catalog = Profile.catalog e.sp.profile in
      Profile.all_stats e.sp.profile
      |> List.iter (fun (cs : Col_stats.t) ->
             if Prune.is_text_field cs then begin
               let rel = Catalog.find_exn catalog cs.relation in
               let ai = Schema.index_of_exn (Relation.schema rel) cs.attribute in
               Relation.iteri_rows
                 (fun row_i row ->
                   let v = row.(ai) in
                   if not (Value.is_null v) then begin
                     let s = Value.to_string v in
                     if not (is_sequence_value s) then
                       List.iter
                         (fun obj ->
                           let key = Objref.to_string obj in
                           let buf =
                             match Hashtbl.find_opt docs key with
                             | Some b -> b
                             | None ->
                                 let b = Buffer.create 128 in
                                 Hashtbl.add docs key b;
                                 Hashtbl.replace refs key obj;
                                 b
                           in
                           Buffer.add_string buf s;
                           Buffer.add_char buf ' ')
                         (Owner_map.object_of_row e.owner ~relation:cs.relation
                            ~row:row_i)
                   end)
                 rel
             end))
    (Profile_list.entries profiles);
  Hashtbl.fold
    (fun key buf acc -> (Hashtbl.find refs key, Buffer.contents buf) :: acc)
    docs []
  |> List.sort (fun (a, _) (b, _) -> Objref.compare a b)

(* name-like attribute: short unique text on the primary relation *)
let name_dictionary profiles =
  let dict : (string, Objref.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (e : Profile_list.entry) ->
      match Source_profile.primary_accession e.sp with
      | None -> ()
      | Some (prel, pattr) ->
          let catalog = Profile.catalog e.sp.profile in
          let source = Source_profile.source e.sp in
          let rel = Catalog.find_exn catalog prel in
          let schema = Relation.schema rel in
          Schema.names schema
          |> List.iter (fun attr ->
                 if String.lowercase_ascii attr <> String.lowercase_ascii pattr
                 then begin
                   let cs = Profile.stats e.sp.profile ~relation:prel ~attribute:attr in
                   let name_like =
                     cs.all_unique && cs.avg_len >= 3.0 && cs.avg_len <= 25.0
                     && cs.alpha_frac >= 0.9 && cs.numeric_frac < 0.5
                   in
                   if name_like then begin
                     let ai = Schema.index_of_exn schema attr in
                     let acc_i = Schema.index_of_exn schema pattr in
                     Relation.iter_rows
                       (fun row ->
                         let v = row.(ai) in
                         if (not (Value.is_null v)) && Value.length v >= 3 then
                           Hashtbl.replace dict
                             (String.lowercase_ascii (Value.to_string v))
                             (Objref.make ~source ~relation:prel
                                ~accession:(Value.to_string row.(acc_i))))
                       rel
                   end
                 end))
    (Profile_list.entries profiles);
  dict

(* contiguous [lo, hi) index ranges of near-equal size covering [0, n) *)
let ranges_of nshards n =
  if n = 0 then []
  else begin
    let nshards = max 1 nshards in
    let per = (n + nshards - 1) / nshards in
    let rec go lo acc =
      if lo >= n then List.rev acc
      else go (lo + per) ((lo, min n (lo + per)) :: acc)
    in
    go 0 []
  end

let discover ?(params = default_params) profiles =
  let documents = object_documents profiles in
  let corpus = Tx.Tfidf.corpus_create () in
  let by_id : (string, Objref.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (obj, doc) ->
      let id = Objref.to_string obj in
      Hashtbl.replace by_id id obj;
      Tx.Tfidf.corpus_add corpus ~doc_id:id doc)
    documents;
  (* cosine-similarity links: the candidate join over the whole prepared
     corpus, same-source pairs dropped after scoring *)
  let prep = Tx.Tfidf.prepare corpus in
  let links = ref [] in
  List.iter
    (fun (ida, idb, sim) ->
      match (Hashtbl.find_opt by_id ida, Hashtbl.find_opt by_id idb) with
      | Some obj, Some other when obj.Objref.source <> other.Objref.source ->
          links :=
            Link.make ~src:obj ~dst:other ~kind:Link.Text_similarity
              ~confidence:sim
              ~evidence:(Printf.sprintf "tfidf cosine=%.2f" sim)
            :: !links
      | _ -> ())
    (Tx.Tfidf.similar_pairs_range prep ~lo:0 ~hi:(Tx.Tfidf.prepared_docs prep)
       ~min_sim:params.min_cosine);
  (* entity-mention links: only dictionary hits are ever computed (the
     recognizer's surface heuristics would be discarded at the lookup
     below anyway), in document order *)
  let dict = name_dictionary profiles in
  let recognizer = Tx.Entity_recog.create () in
  Tx.Entity_recog.add_dictionary recognizer
    (Hashtbl.fold (fun name _ acc -> name :: acc) dict []);
  let mention_shards =
    List.map
      (fun (obj, doc) ->
        Tx.Entity_recog.recognize_dictionary recognizer doc
        |> List.filter_map (fun (m : Tx.Entity_recog.mention) ->
               match Hashtbl.find_opt dict (String.lowercase_ascii m.surface) with
               | Some target when obj.Objref.source <> target.Objref.source ->
                   Some
                     (Link.make ~src:obj ~dst:target ~kind:Link.Entity_mention
                        ~confidence:(0.6 *. m.score)
                        ~evidence:(Printf.sprintf "mention %S" m.surface))
               | _ -> None))
      documents
  in
  let mention_links =
    List.fold_left (fun acc ls -> acc + List.length ls) 0 mention_shards
  in
  { links = Link.dedup (List.concat (!links :: mention_shards));
    documents = List.length documents;
    mention_links }

(* --- the delta pipeline's pass: one changed source against the rest ---

   A source pair's links are those of [discover] over the two sources
   alone: its tf-idf corpus, document frequencies and name dictionary are
   pair-local, so they are a pure function of the pair's contents. What
   does not depend on the pair is prepared once per relink, for every
   source: its documents split into words once (the tf-idf terms and the
   mention tokens both come from that split), its term counts in one
   relink-wide lexicographic term-id space, its document frequencies, its
   name dictionary and its documents' dictionary hits. A pair then only
   adds two sources' frequencies and runs the join over int arrays. *)

type prepared_source = {
  objs : Objref.t array;  (* documents in ascending doc-id order *)
  ids : string array;
  rank : int array;  (* each document's rank among all sources' doc ids *)
  counts : Tx.Tfidf.counts array;
  df : int array;  (* term id -> documents of this source holding it *)
  hits : (string * int) list array;
      (* per document, its dictionary tokens: surface and name id *)
  names : Objref.t option array;
      (* name id -> the object this source's dictionary maps it to *)
}

type split_document = {
  obj : Objref.t;
  id : string;
  terms : string list;  (* lowercased tf-idf terms *)
  dict_hits : (string * int) list;
}

(* a document's words, split once: the tf-idf terms ([Tokenize.terms])
   and the raw tokens whose lowercase form some source's dictionary holds
   (what [Entity_recog.recognize_dictionary] finds) *)
let split_document ~name_id (obj, text) =
  let terms = ref [] and hits = ref [] in
  List.iter
    (fun surface ->
      let w = String.lowercase_ascii surface in
      if not (Tx.Tokenize.stopword w) then begin
        if String.length w > 1 then terms := w :: !terms;
        match Hashtbl.find_opt name_id w with
        | Some nid -> hits := (surface, nid) :: !hits
        | None -> ()
      end)
    (Tx.Tokenize.words_raw text);
  { obj; id = Objref.to_string obj; terms = !terms; dict_hits = !hits }

(* term ids, ascending, with their counts *)
let counts_of_ids ids =
  Array.sort Int.compare ids;
  let starts x = x = 0 || ids.(x - 1) <> ids.(x) in
  let distinct = ref 0 in
  Array.iteri (fun x _ -> if starts x then incr distinct) ids;
  let terms = Array.make !distinct 0 and tfs = Array.make !distinct 0 in
  let k = ref (-1) in
  Array.iteri
    (fun x t ->
      if starts x then begin
        incr k;
        terms.(!k) <- t
      end;
      tfs.(!k) <- tfs.(!k) + 1)
    ids;
  { Tx.Tfidf.terms; tfs }

(* Everything a relink's text pairs share, built once: every source's
   documents, their counts in one lexicographic term-id space, per-source
   document frequencies and dictionaries. The per-source work fans out
   over the pool; the tables it reads are complete before each fan-out.
   Returns the vocabulary size and the sources in [profiles] order. *)
let prepare_sources ?pool profiles =
  let names = Profile_list.sources profiles in
  let dicts =
    List.map
      (fun s -> name_dictionary (Profile_list.restrict profiles [ s ]))
      names
  in
  let name_id : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (Hashtbl.iter (fun name _ ->
         if not (Hashtbl.mem name_id name) then
           Hashtbl.replace name_id name (Hashtbl.length name_id)))
    dicts;
  let split =
    Pool.map ?pool
      (fun s ->
        object_documents (Profile_list.restrict profiles [ s ])
        |> List.map (split_document ~name_id)
        |> List.sort (fun a b -> String.compare a.id b.id)
        |> Array.of_list)
      names
  in
  (* term ids: ranks in the sorted vocabulary of every source *)
  let term_id : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (Array.iter (fun d -> List.iter (fun w -> Hashtbl.replace term_id w 0) d.terms))
    split;
  let vocab = Array.of_list (Hashtbl.fold (fun w _ acc -> w :: acc) term_id []) in
  Array.sort String.compare vocab;
  Array.iteri (fun i w -> Hashtbl.replace term_id w i) vocab;
  (* every document's rank among all sources' doc ids, so that any two
     sources' documents merge in ascending id order by int compares *)
  let all_ids = Array.concat (List.map (Array.map (fun d -> d.id)) split) in
  Array.sort String.compare all_ids;
  let rank_of id =
    let lo = ref 0 and hi = ref (Array.length all_ids) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare all_ids.(mid) id < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let nterms = Array.length vocab in
  let nnames = Hashtbl.length name_id in
  let sources =
    Pool.map ?pool
      (fun (docs, dict) ->
        let counts =
          Array.map
            (fun d ->
              counts_of_ids (Array.of_list (List.map (Hashtbl.find term_id) d.terms)))
            docs
        in
        let df = Array.make nterms 0 in
        Array.iter
          (fun (c : Tx.Tfidf.counts) ->
            Array.iter (fun t -> df.(t) <- df.(t) + 1) c.terms)
          counts;
        let names = Array.make nnames None in
        Hashtbl.iter
          (fun name obj -> names.(Hashtbl.find name_id name) <- Some obj)
          dict;
        { objs = Array.map (fun d -> d.obj) docs;
          ids = Array.map (fun d -> d.id) docs;
          rank = Array.map (fun d -> rank_of d.id) docs;
          counts; df;
          hits = Array.map (fun d -> d.dict_hits) docs;
          names })
      (List.combine split dicts)
  in
  (nterms, List.combine names sources)

(* HOT-PATH-BEGIN (per-pair text links): everything down to the END
   sentinel runs once per source pair of a relink. It combines prepared
   sources with int arrays alone: no document is rebuilt or re-split, and
   no string is lowercased, hashed or sorted (a grep-gate in
   scripts/check.sh enforces it on this region). *)

(* A pair's corpus over its two sources in canonical order: their
   documents merged in ascending doc-id order — the order a string corpus
   over them indexes them in — grouped by source, so that no same-source
   pair is a candidate, with document frequencies summed from the
   sources' *)
let pair_corpus ~nterms srcs =
  let order =
    Array.concat
      (List.mapi
         (fun si s -> Array.mapi (fun d r -> (r, si, d)) s.rank)
         srcs)
  in
  Array.sort (fun (r, _, _) (r', _, _) -> Int.compare r r') order;
  let srcs = Array.of_list srcs in
  let doc f = Array.map (fun (_, si, d) -> f srcs.(si) d) order in
  let df = Array.make nterms 0 in
  Array.iter (fun s -> Array.iteri (fun t d -> df.(t) <- df.(t) + d) s.df) srcs;
  let prep =
    Tx.Tfidf.prepare_counts
      ~groups:(Array.map (fun (_, si, _) -> si) order)
      ~ids:(doc (fun s d -> s.ids.(d)))
      ~df
      (doc (fun s d -> s.counts.(d)))
  in
  (doc (fun s d -> s.objs.(d)), prep)

(* the pair's mention links: every document of its sources against the
   pair's dictionary, where a name both sources define resolves to the
   canonically later one *)
let pair_mentions srcs =
  let later_first = List.rev srcs in
  let resolve nid = List.find_map (fun s -> s.names.(nid)) later_first in
  let links = ref [] in
  List.iter
    (fun s ->
      Array.iteri
        (fun d hits ->
          let obj = s.objs.(d) in
          List.iter
            (fun (surface, nid) ->
              match resolve nid with
              | Some target when obj.Objref.source <> target.Objref.source ->
                  links :=
                    Link.make ~src:obj ~dst:target ~kind:Link.Entity_mention
                      ~confidence:0.6
                      ~evidence:(Printf.sprintf "mention %S" surface)
                    :: !links
              | _ -> ())
            hits)
        s.hits)
    srcs;
  !links

let cosine_link objs (i, j, sim) =
  Link.make ~src:objs.(i) ~dst:objs.(j) ~kind:Link.Text_similarity
    ~confidence:sim ~evidence:(Printf.sprintf "tfidf cosine=%.2f" sim)

(* HOT-PATH-END *)

let discover_source ?(params = default_params) ?pool profiles ~source =
  let sources = Profile_list.sources profiles in
  let nterms, prepared =
    (* a source alone has no pair *)
    if List.mem source sources && List.exists (( <> ) source) sources then
      prepare_sources ?pool profiles
    else (0, [])
  in
  (* the changed source's pairs, each with its sources in canonical order *)
  let pairs =
    match List.assoc_opt source prepared with
    | None -> []
    | Some own ->
        List.filter_map
          (fun (other, s) ->
            if other = source then None
            else if String.compare source other < 0 then
              Some ((source, other), [ own; s ])
            else Some ((other, source), [ s; own ]))
          prepared
  in
  let corpora =
    Array.of_list
      (Pool.map ?pool (fun (_, srcs) -> pair_corpus ~nterms srcs) pairs)
  in
  (* every pair's join, sharded by query-document range, in one fan-out *)
  let nshards = match pool with None -> 1 | Some p -> max 1 (Pool.size p * 4) in
  let shards =
    List.concat
      (List.mapi
         (fun pi (_, prep) ->
           List.map (fun r -> (pi, r))
             (ranges_of nshards (Tx.Tfidf.prepared_docs prep)))
         (Array.to_list corpora))
  in
  let scored =
    Pool.map ?pool
      (fun (pi, (lo, hi)) ->
        Tx.Tfidf.similar_index_pairs_range (snd corpora.(pi)) ~lo ~hi
          ~min_sim:params.min_cosine)
      shards
  in
  let cosine = Array.make (Array.length corpora) [] in
  List.iter2
    (fun (pi, _) hits ->
      let objs = fst corpora.(pi) in
      cosine.(pi) <- List.rev_map (cosine_link objs) hits @ cosine.(pi))
    shards scored;
  let pairs =
    List.mapi
      (fun pi (p, srcs) ->
        (p, Link.dedup (cosine.(pi) @ pair_mentions srcs)))
      pairs
  in
  Aladin_obs.Trace.ambient_incr
    ~by:(List.fold_left (fun acc (_, s) -> acc + Array.length s.objs) 0 prepared)
    "text.documents";
  Aladin_obs.Trace.ambient_incr
    ~by:(List.fold_left (fun acc (_, ls) -> acc + List.length ls) 0 pairs)
    "text.links";
  pairs
