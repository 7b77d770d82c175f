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

(* fields only conflict when their attribute names correspond this much *)
let min_name_affinity = 0.3

(* values more similar than this agree *)
let max_value_similarity = 0.8

(* one side of a comparison: each field's name tokens, computed once per
   call, and its value, prepared on first use *)
type side = {
  fields : (string * string) array;
  toks : string list array;
  prepared : Field_sim.prepared option array;
}

let side (r : Object_sim.repr) =
  let fields = Array.of_list r.fields in
  {
    fields;
    toks = Array.map (fun (attr, _) -> Field_sim.name_tokens attr) fields;
    prepared = Array.make (Array.length fields) None;
  }

let prepared_value s i =
  match s.prepared.(i) with
  | Some p -> p
  | None ->
      let p = Field_sim.prepare (snd s.fields.(i)) in
      s.prepared.(i) <- Some p;
      p

(* pair up fields by attribute-name affinity, then flag disagreeing
   values; in (field of a, field of b) order *)
let between (a : Object_sim.repr) (b : Object_sim.repr) =
  let sa = side a and sb = side b in
  let found = ref [] in
  (* HOT-PATH-BEGIN: the field-pair loop, up to 40 x 40 pairs per
     duplicate link of every view. It reads only the name tokens and the
     prepared values of [side]: re-tokenizing a name or re-preparing a
     value per pair is the work [side] does once per field (enforced by
     a grep-gate in scripts/check.sh). *)
  for i = 0 to Array.length sa.fields - 1 do
    for j = 0 to Array.length sb.fields - 1 do
      let name_sim = Field_sim.name_affinity_tokens sa.toks.(i) sb.toks.(j) in
      if name_sim < min_name_affinity then ()
      else
        let vs =
          Field_sim.similarity_prepared (prepared_value sa i)
            (prepared_value sb j)
        in
        if vs >= max_value_similarity then ()
        else
          let attr_a, value_a = sa.fields.(i)
          and attr_b, value_b = sb.fields.(j) in
          found :=
            { obj_a = a.obj; obj_b = b.obj; attr_a; attr_b; value_a; value_b;
              similarity = vs }
            :: !found
    done
  done;
  (* HOT-PATH-END *)
  List.rev !found

type table = (string, Object_sim.repr) Hashtbl.t

let table reprs =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (r : Object_sim.repr) -> Hashtbl.replace tbl (Objref.to_string r.obj) r)
    reprs;
  tbl

let in_duplicates tbl links =
  List.concat_map
    (fun (l : Link.t) ->
      if l.kind <> Link.Duplicate then []
      else
        match
          ( Hashtbl.find_opt tbl (Objref.to_string l.src),
            Hashtbl.find_opt tbl (Objref.to_string l.dst) )
        with
        | Some a, Some b -> between a b
        | (Some _ | None), _ -> [])
    links

let to_string c =
  Printf.sprintf "%s.%s=%S vs %s.%s=%S (sim %.2f)" (Objref.to_string c.obj_a)
    c.attr_a c.value_a (Objref.to_string c.obj_b) c.attr_b c.value_b
    c.similarity
