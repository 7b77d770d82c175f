open Aladin_relational
open Aladin_discovery
open Aladin_links
module Tx = Aladin_text

type t = {
  idx : Tx.Inverted_index.t;
  objects : (string, Objref.t) Hashtbl.t;  (* doc id -> object *)
  by_accession : (string, Objref.t) Hashtbl.t;
}

let build profiles =
  let objects = Hashtbl.create 512 in
  let by_accession = Hashtbl.create 512 in
  let fill add =
    List.iter
      (fun (e : Profile_list.entry) ->
        let catalog = Profile.catalog e.sp.profile in
        (match Source_profile.primary_accession e.sp with
        | None -> ()
        | Some (prel, pattr) ->
            (* index the primary rows field by field *)
            let rel = Catalog.find_exn catalog prel in
            let schema = Relation.schema rel in
            let acc_i = Schema.index_of_exn schema pattr in
            let source = Source_profile.source e.sp in
            Relation.iter_rows
              (fun row ->
                let accession = Value.to_string row.(acc_i) in
                let obj = Objref.make ~source ~relation:prel ~accession in
                let doc_id = Objref.to_string obj in
                Hashtbl.replace objects doc_id obj;
                Hashtbl.replace by_accession (String.lowercase_ascii accession) obj;
                add ~doc_id ~field:"accession" accession;
                List.iteri
                  (fun i attr ->
                    if i <> acc_i then
                      let v = row.(i) in
                      if not (Value.is_null v) then
                        add ~doc_id ~field:(prel ^ "." ^ attr) (Value.to_string v))
                  (Schema.names schema))
              rel);
        (* index owned text fields of secondary relations *)
        Profile.all_stats e.sp.profile
        |> List.iter (fun (cs : Col_stats.t) ->
               let is_primary_rel =
                 match Source_profile.primary_relation e.sp with
                 | Some p -> String.lowercase_ascii p = String.lowercase_ascii cs.relation
                 | None -> false
               in
               if (not is_primary_rel) && Prune.is_text_field cs then begin
                 let rel = Catalog.find_exn catalog cs.relation in
                 let ai = Schema.index_of_exn (Relation.schema rel) cs.attribute in
                 Relation.iteri_rows
                   (fun row_i row ->
                     let v = row.(ai) in
                     if not (Value.is_null v) then
                       List.iter
                         (fun obj ->
                           add ~doc_id:(Objref.to_string obj)
                             ~field:(cs.relation ^ "." ^ cs.attribute)
                             (Value.to_string v))
                         (Owner_map.object_of_row e.owner ~relation:cs.relation
                            ~row:row_i))
                   rel
               end))
      (Profile_list.entries profiles)
  in
  let idx = Tx.Inverted_index.build fill in
  { idx; objects; by_accession }

type hit = { obj : Objref.t; score : float; matched : string list }

(* descending score, ties broken by the full Objref order (source,
   relation, accession) — never by hash-table or schedule order — so a
   result list is byte-identical across runs, domain counts, and cached
   vs. recomputed responses *)
let compare_hits a b =
  match Float.compare b.score a.score with
  | 0 -> Objref.compare a.obj b.obj
  | c -> c

let to_hits t results =
  List.filter_map
    (fun (r : Tx.Inverted_index.query_result) ->
      Hashtbl.find_opt t.objects r.doc_id
      |> Option.map (fun obj ->
             { obj; score = r.score; matched = List.sort String.compare r.matched }))
    results
  |> List.sort compare_hits

let search t ?(limit = 20) query =
  to_hits t (Tx.Inverted_index.search t.idx ~limit query)

let focused t ?source ?field ?(limit = 20) query =
  let raw = Tx.Inverted_index.search t.idx ?field ~limit:(limit * 4) query in
  to_hits t raw
  |> List.filter (fun h ->
         match source with
         | Some s -> h.obj.Objref.source = s
         | None -> true)
  |> List.filteri (fun i _ -> i < limit)

let resolve t accession =
  Hashtbl.find_opt t.by_accession (String.lowercase_ascii accession)
