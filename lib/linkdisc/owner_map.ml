open Aladin_relational
open Aladin_discovery

type t = {
  source : string;
  primary : string option;
  primary_attr : string option;
  owners : (string, string list array) Hashtbl.t;  (* relation -> per-row *)
  accession_rows : (string, int) Hashtbl.t;  (* accession -> row in primary *)
  accessions : string list;
}

let norm = String.lowercase_ascii

let empty source =
  {
    source;
    primary = None;
    primary_attr = None;
    owners = Hashtbl.create 4;
    accession_rows = Hashtbl.create 4;
    accessions = [];
  }

(* propagate owners from [from_rel] (already mapped) to [to_rel] joining
   from_attr = to_attr *)
let propagate catalog owners ~from_rel ~from_attr ~to_rel ~to_attr =
  let from_relation = Catalog.find_exn catalog from_rel in
  let to_relation = Catalog.find_exn catalog to_rel in
  let from_owners = Hashtbl.find owners (norm from_rel) in
  let index : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  let fi = Schema.index_of_exn (Relation.schema from_relation) from_attr in
  Relation.iteri_rows
    (fun i row ->
      let v = row.(fi) in
      if not (Value.is_null v) then begin
        let key = Value.to_string v in
        let cell =
          match Hashtbl.find_opt index key with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.add index key c;
              c
        in
        cell := from_owners.(i) @ !cell
      end)
    from_relation;
  let ti = Schema.index_of_exn (Relation.schema to_relation) to_attr in
  let result = Array.make (Relation.cardinality to_relation) [] in
  Relation.iteri_rows
    (fun i row ->
      let v = row.(ti) in
      if not (Value.is_null v) then
        match Hashtbl.find_opt index (Value.to_string v) with
        | Some cell -> result.(i) <- List.sort_uniq String.compare !cell
        | None -> ())
    to_relation;
  result

let build (sp : Source_profile.t) =
  let catalog = Profile.catalog sp.profile in
  let source = Catalog.name catalog in
  match Source_profile.primary_accession sp with
  | None -> empty source
  | Some (primary_rel, acc_attr) ->
      let owners = Hashtbl.create 16 in
      let accession_rows = Hashtbl.create 256 in
      let primary = Catalog.find_exn catalog primary_rel in
      let ai = Schema.index_of_exn (Relation.schema primary) acc_attr in
      let accs = Array.make (Relation.cardinality primary) [] in
      let acc_list = ref [] in
      Relation.iteri_rows
        (fun i row ->
          let acc = Value.to_string row.(ai) in
          accs.(i) <- [ acc ];
          Hashtbl.replace accession_rows acc i;
          acc_list := acc :: !acc_list)
        primary;
      Hashtbl.replace owners (norm primary_rel) accs;
      (* walk the discovered secondary structure in depth order, mapping
         each relation through the first (shortest) path's last step *)
      (match sp.secondary with
      | None -> ()
      | Some sec ->
          List.iter
            (fun (e : Secondary.entry) ->
              match e.paths with
              | [] -> ()
              | path :: _ -> (
                  match List.rev path with
                  | [] -> ()
                  | (last : Fk_graph.step) :: prefix_rev ->
                      (* the relation before the last step *)
                      let prev_rel =
                        match prefix_rev with
                        | [] -> primary_rel
                        | p :: _ ->
                            if p.forward then p.fk.dst_relation
                            else p.fk.src_relation
                      in
                      let from_rel, from_attr, to_rel, to_attr =
                        if last.forward then
                          (* traversal follows fk src->dst; we come FROM src *)
                          ( last.fk.src_relation, last.fk.src_attribute,
                            last.fk.dst_relation, last.fk.dst_attribute )
                        else
                          ( last.fk.dst_relation, last.fk.dst_attribute,
                            last.fk.src_relation, last.fk.src_attribute )
                      in
                      ignore prev_rel;
                      if
                        Hashtbl.mem owners (norm from_rel)
                        && not (Hashtbl.mem owners (norm to_rel))
                        && norm to_rel = norm e.relation
                      then
                        Hashtbl.replace owners (norm to_rel)
                          (propagate catalog owners ~from_rel ~from_attr ~to_rel
                             ~to_attr)))
            sec.entries);
      {
        source;
        primary = Some primary_rel;
        primary_attr = Some acc_attr;
        owners;
        accession_rows;
        accessions = List.rev !acc_list;
      }

let row_owners t ~relation =
  Option.value (Hashtbl.find_opt t.owners (norm relation)) ~default:[||]

let owners t ~relation ~row =
  let arr = row_owners t ~relation in
  if row >= 0 && row < Array.length arr then arr.(row) else []

let objref t ~accession =
  match t.primary with
  | None -> None
  | Some relation ->
      if Hashtbl.mem t.accession_rows accession then
        Some (Objref.make ~source:t.source ~relation ~accession)
      else None

let primary_accessions t = t.accessions

let object_of_row t ~relation ~row =
  owners t ~relation ~row
  |> List.filter_map (fun accession -> objref t ~accession)
