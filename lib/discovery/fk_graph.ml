type step = { fk : Inclusion.fk; forward : bool }

type path = step list

type t = {
  relations : string list;  (* original casing, insertion order *)
  fks : Inclusion.fk list;
  adj : (string, (string * step) list) Hashtbl.t;  (* normalized name -> nbrs *)
  indeg : (string, int) Hashtbl.t;
  outdeg : (string, int) Hashtbl.t;
}

let norm = String.lowercase_ascii

let build ~relations fks =
  let adj = Hashtbl.create 16 in
  let indeg = Hashtbl.create 16 in
  let outdeg = Hashtbl.create 16 in
  let bump tbl k = Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0) in
  let add_adj k entry =
    Hashtbl.replace adj k (entry :: (try Hashtbl.find adj k with Not_found -> []))
  in
  List.iter
    (fun (fk : Inclusion.fk) ->
      let s = norm fk.src_relation and d = norm fk.dst_relation in
      bump indeg d;
      bump outdeg s;
      add_adj s (d, { fk; forward = true });
      add_adj d (s, { fk; forward = false }))
    fks;
  { relations; fks; adj; indeg; outdeg }

let relations t = t.relations

let fks t = t.fks

let in_degree t rel = try Hashtbl.find t.indeg (norm rel) with Not_found -> 0

let out_degree t rel = try Hashtbl.find t.outdeg (norm rel) with Not_found -> 0

let average_in_degree t =
  match t.relations with
  | [] -> 0.0
  | rels ->
      let total = List.fold_left (fun acc r -> acc + in_degree t r) 0 rels in
      float_of_int total /. float_of_int (List.length rels)

let neighbors t rel =
  try Hashtbl.find t.adj (norm rel) with Not_found -> []

let max_paths_per_dest = 8

(* depth-bounded DFS enumerating simple paths (no relation revisited) *)
let paths_from t ~src ~max_len =
  let found : (string, path list ref) Hashtbl.t = Hashtbl.create 16 in
  let record dest path =
    let entry =
      match Hashtbl.find_opt found dest with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add found dest l;
          l
    in
    if List.length !entry < max_paths_per_dest then entry := path :: !entry
  in
  let rec dfs node visited path_rev depth =
    if depth < max_len then
      List.iter
        (fun (next, step) ->
          if not (List.mem next visited) then begin
            let path = List.rev (step :: path_rev) in
            record next path;
            dfs next (next :: visited) (step :: path_rev) (depth + 1)
          end)
        (neighbors t node)
  in
  let s = norm src in
  dfs s [ s ] [] 0;
  t.relations
  |> List.filter_map (fun rel ->
         let k = norm rel in
         if k = s then None
         else
           match Hashtbl.find_opt found k with
           | Some paths ->
               let sorted =
                 List.sort
                   (fun a b -> Int.compare (List.length a) (List.length b))
                   !paths
               in
               Some (rel, sorted)
           | None -> None)
