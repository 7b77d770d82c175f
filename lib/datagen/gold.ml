type expected_fk = {
  src_relation : string;
  src_attribute : string;
  dst_relation : string;
  dst_attribute : string;
}

type source_gold = {
  source : string;
  primary_relation : string;
  accession_attribute : string;
  fks : expected_fk list;
  objects : (string * int) list;
}

type t = {
  mutable sources : source_gold list;
  mutable xrefs : (string * string) list;
}

let create () = { sources = []; xrefs = [] }

let add_source t sg = t.sources <- t.sources @ [ sg ]

let add_xref t ~src ~dst = t.xrefs <- (src, dst) :: t.xrefs

let obj_key ~source ~accession = source ^ ":" ^ accession

let find_source t name = List.find_opt (fun s -> s.source = name) t.sources

let canonical (a, b) = if a <= b then (a, b) else (b, a)

let source_of_key key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

let duplicate_pairs t =
  let by_uid : (int, string list ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun sg ->
      List.iter
        (fun (acc, uid) ->
          let key = obj_key ~source:sg.source ~accession:acc in
          match Hashtbl.find_opt by_uid uid with
          | Some l -> l := key :: !l
          | None -> Hashtbl.add by_uid uid (ref [ key ]))
        sg.objects)
    t.sources;
  let pairs = ref [] in
  Hashtbl.iter
    (fun _ keys ->
      let rec all_pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                if source_of_key a <> source_of_key b then
                  pairs := canonical (a, b) :: !pairs)
              rest;
            all_pairs rest
      in
      all_pairs !keys)
    by_uid;
  List.sort_uniq compare !pairs

let family_pairs universe t =
  let with_family =
    List.concat_map
      (fun sg ->
        List.filter_map
          (fun (acc, uid) ->
            match Universe.entity universe uid with
            | exception Not_found -> None
            | e -> (
                match (e.Universe.family, e.Universe.sequence) with
                | Some fam, Some _ ->
                    Some (obj_key ~source:sg.source ~accession:acc, fam)
                | (Some _ | None), _ -> None))
          sg.objects)
      t.sources
  in
  let pairs = ref [] in
  let rec loop = function
    | [] -> ()
    | (ka, fa) :: rest ->
        List.iter
          (fun (kb, fb) ->
            if fa = fb && source_of_key ka <> source_of_key kb then
              pairs := canonical (ka, kb) :: !pairs)
          rest;
        loop rest
  in
  loop with_family;
  List.sort_uniq compare !pairs
