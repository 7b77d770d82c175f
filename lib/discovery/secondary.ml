type entry = {
  relation : string;
  paths : Fk_graph.path list;
  depth : int;
  kind : [ `Annotation | `Bridge | `Dictionary ];
}

type t = {
  primary : string;
  entries : entry list;
  orphans : string list;
}

let norm = String.lowercase_ascii

(* a bridge table has >= 2 outgoing FKs and every attribute of it that
   appears in the FK graph is an FK source; we approximate "all attributes"
   with "at least two outgoing and no incoming" *)
let kind_of graph relation =
  let outgoing = Fk_graph.out_degree graph relation in
  let incoming = Fk_graph.in_degree graph relation in
  if outgoing >= 2 && incoming = 0 then `Bridge
  else begin
    let dictionary =
      List.exists
        (fun (fk : Inclusion.fk) ->
          norm fk.dst_relation = norm relation
          && fk.cardinality = Inclusion.One_to_one)
        (Fk_graph.fks graph)
      && outgoing = 0
    in
    if dictionary then `Dictionary else `Annotation
  end

let discover ?(max_len = 6) graph ~primary =
  let reachable = Fk_graph.paths_from graph ~src:primary ~max_len in
  let entries =
    List.map
      (fun (relation, paths) ->
        let depth =
          match paths with [] -> max_len | p :: _ -> List.length p
        in
        { relation; paths; depth; kind = kind_of graph relation })
      reachable
    |> List.sort (fun a b ->
           match Int.compare a.depth b.depth with
           | 0 -> String.compare a.relation b.relation
           | c -> c)
  in
  let covered = norm primary :: List.map (fun e -> norm e.relation) entries in
  let orphans =
    List.filter
      (fun rel -> not (List.mem (norm rel) covered))
      (Fk_graph.relations graph)
    |> List.sort String.compare
  in
  { primary; entries; orphans }

let pp ppf t =
  Format.fprintf ppf "@[<v>primary %s" t.primary;
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  %s depth=%d paths=%d kind=%s" e.relation e.depth
        (List.length e.paths)
        (match e.kind with
        | `Annotation -> "annotation"
        | `Bridge -> "bridge"
        | `Dictionary -> "dictionary"))
    t.entries;
  List.iter (fun o -> Format.fprintf ppf "@,  orphan %s" o) t.orphans;
  Format.fprintf ppf "@]"
