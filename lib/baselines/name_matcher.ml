open Aladin_relational
module Tx = Aladin_text

type correspondence = {
  src_source : string;
  src_relation : string;
  src_attribute : string;
  dst_source : string;
  dst_relation : string;
  dst_attribute : string;
  score : float;
}

let tokens name =
  String.split_on_char '_' (String.lowercase_ascii name)
  |> List.filter (fun t -> t <> "")

let name_score (r1, a1) (r2, a2) =
  let jw = Tx.Strdist.jaro_winkler (String.lowercase_ascii a1) (String.lowercase_ascii a2) in
  let t1 = tokens a1 @ tokens r1 and t2 = tokens a2 @ tokens r2 in
  let shared = List.filter (fun t -> List.mem t t2) t1 in
  let bonus = if shared <> [] then 0.1 else 0.0 in
  Float.min 1.0 (jw +. bonus)

let attributes cat =
  List.concat_map
    (fun rel ->
      List.map
        (fun attr -> (Relation.name rel, attr))
        (Schema.names (Relation.schema rel)))
    (Catalog.relations cat)

(* name score a correspondence needs *)
let min_score = 0.75

let match_attributes a b =
  let bs = attributes b in
  attributes a
  |> List.filter_map (fun (ra, aa) ->
         let best =
           List.fold_left
             (fun acc (rb, ab) ->
               let s = name_score (ra, aa) (rb, ab) in
               match acc with
               | Some (_, _, sb) when sb >= s -> acc
               | Some _ | None -> Some (rb, ab, s))
             None bs
         in
         match best with
         | Some (rb, ab, s) when s >= min_score ->
             Some
               { src_source = Catalog.name a; src_relation = ra;
                 src_attribute = aa; dst_source = Catalog.name b;
                 dst_relation = rb; dst_attribute = ab; score = s }
         | Some _ | None -> None)

let match_corpus catalogs =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          if Catalog.name a = Catalog.name b then []
          else match_attributes a b)
        catalogs)
    catalogs
