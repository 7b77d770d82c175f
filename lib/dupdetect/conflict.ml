open Aladin_links

type t = {
  obj_a : Objref.t;
  obj_b : Objref.t;
  attr_a : string;
  attr_b : string;
  value_a : string;
  value_b : string;
  similarity : float;
}

type params = {
  min_name_affinity : float;
  max_value_similarity : float;
}

let default_params = { min_name_affinity = 0.3; max_value_similarity = 0.8 }

let between ?(params = default_params) (a : Object_sim.repr) (b : Object_sim.repr) =
  (* pair up fields by attribute-name affinity, then flag disagreeing values *)
  List.concat_map
    (fun (attr_a, value_a) ->
      List.filter_map
        (fun (attr_b, value_b) ->
          let name_sim = Field_sim.name_affinity attr_a attr_b in
          if name_sim < params.min_name_affinity then None
          else
            let vs = Field_sim.similarity value_a value_b in
            if vs >= params.max_value_similarity then None
            else
              Some
                { obj_a = a.obj; obj_b = b.obj; attr_a; attr_b; value_a;
                  value_b; similarity = vs })
        b.fields)
    a.fields

type table = (string, Object_sim.repr) Hashtbl.t

let table reprs =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (r : Object_sim.repr) -> Hashtbl.replace tbl (Objref.to_string r.obj) r)
    reprs;
  tbl

let in_duplicates ?params tbl links =
  List.concat_map
    (fun (l : Link.t) ->
      if l.kind <> Link.Duplicate then []
      else
        match
          ( Hashtbl.find_opt tbl (Objref.to_string l.src),
            Hashtbl.find_opt tbl (Objref.to_string l.dst) )
        with
        | Some a, Some b -> between ?params a b
        | (Some _ | None), _ -> [])
    links

let pp ppf c =
  Format.fprintf ppf "%a.%s=%S vs %a.%s=%S (sim %.2f)" Objref.pp c.obj_a
    c.attr_a c.value_a Objref.pp c.obj_b c.attr_b c.value_b c.similarity
