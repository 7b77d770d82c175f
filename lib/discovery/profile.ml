open Aladin_relational

type t = {
  catalog : Catalog.t;
  stats : (string * string, Col_stats.t) Hashtbl.t;
  order : (string * string) list;  (* relation-major attribute order *)
}

let key relation attribute =
  (String.lowercase_ascii relation, String.lowercase_ascii attribute)

let compute catalog =
  let stats = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun rel ->
      List.iter
        (fun (cs : Col_stats.t) ->
          let k = key cs.relation cs.attribute in
          Hashtbl.replace stats k cs;
          order := k :: !order)
        (Col_stats.of_relation rel))
    (Catalog.relations catalog);
  { catalog; stats; order = List.rev !order }

let catalog t = t.catalog

let source t = Catalog.name t.catalog

let stats t ~relation ~attribute =
  match Hashtbl.find_opt t.stats (key relation attribute) with
  | Some cs -> cs
  | None -> raise Not_found

let all_stats t =
  List.map (fun k -> Hashtbl.find t.stats k) t.order

let is_unique t ~relation ~attribute =
  Catalog.declared_unique t.catalog ~relation ~attribute
  || (stats t ~relation ~attribute).all_unique

let unique_attributes t =
  List.filter_map
    (fun (cs : Col_stats.t) ->
      if is_unique t ~relation:cs.relation ~attribute:cs.attribute then
        Some (cs.relation, cs.attribute)
      else None)
    (all_stats t)
