type t = {
  name : string;
  order : string Vec.t;
  by_name : (string, Relation.t) Hashtbl.t;
  mutable constraints : Constraint_def.t list;
}

let norm = String.lowercase_ascii

let create ~name =
  { name; order = Vec.create (); by_name = Hashtbl.create 16; constraints = [] }

let name t = t.name

let add t rel =
  let key = norm (Relation.name rel) in
  if Hashtbl.mem t.by_name key then
    invalid_arg
      (Printf.sprintf "Catalog.add: duplicate relation %S in source %s"
         (Relation.name rel) t.name);
  Hashtbl.add t.by_name key rel;
  Vec.push t.order key

let create_relation t ~name schema =
  let rel = Relation.create ~name schema in
  add t rel;
  rel

let find t rel_name = Hashtbl.find_opt t.by_name (norm rel_name)

let find_exn t rel_name =
  match find t rel_name with Some r -> r | None -> raise Not_found

let relations t =
  Vec.to_list t.order |> List.map (fun key -> Hashtbl.find t.by_name key)

let relation_names t = List.map Relation.name (relations t)

let check_attr t ~relation ~attribute ctx =
  match find t relation with
  | None ->
      invalid_arg
        (Printf.sprintf "Catalog.declare (%s): unknown relation %S" ctx relation)
  | Some rel ->
      if not (Schema.mem (Relation.schema rel) attribute) then
        invalid_arg
          (Printf.sprintf "Catalog.declare (%s): unknown attribute %s.%s" ctx
             relation attribute)

let declare t c =
  (match c with
  | Constraint_def.Unique { relation; attribute }
  | Constraint_def.Primary_key { relation; attribute } ->
      check_attr t ~relation ~attribute "unique"
  | Constraint_def.Foreign_key
      { src_relation; src_attribute; dst_relation; dst_attribute } ->
      check_attr t ~relation:src_relation ~attribute:src_attribute "fk-src";
      check_attr t ~relation:dst_relation ~attribute:dst_attribute "fk-dst");
  if not (List.exists (Constraint_def.equal c) t.constraints) then
    t.constraints <- c :: t.constraints

let constraints t = List.rev t.constraints

let declared_unique t ~relation ~attribute =
  List.exists
    (function
      | Constraint_def.Unique { relation = r; attribute = a }
      | Constraint_def.Primary_key { relation = r; attribute = a } ->
          norm r = norm relation && norm a = norm attribute
      | Constraint_def.Foreign_key _ -> false)
    t.constraints

let declared_fks t =
  List.filter
    (function Constraint_def.Foreign_key _ -> true | _ -> false)
    (constraints t)

let total_rows t =
  List.fold_left (fun acc r -> acc + Relation.cardinality r) 0 (relations t)
