open Aladin_discovery

type entry = { sp : Source_profile.t; owner : Owner_map.t }

type t = entry list

let of_profiles sps =
  List.map (fun sp -> { sp; owner = Owner_map.build sp }) sps

let empty = []

let remove t name =
  List.filter (fun e -> Source_profile.source e.sp <> name) t

let add t sp =
  remove t (Source_profile.source sp) @ [ { sp; owner = Owner_map.build sp } ]

let entries t = t

let sources t = List.map (fun e -> Source_profile.source e.sp) t

let find t name =
  List.find_opt (fun e -> Source_profile.source e.sp = name) t

let restrict t names =
  (* entries (and their owner maps) are reused, never rebuilt; the result
     follows the order of [names], so a caller restricting to a sorted
     source pair gets the same list whatever order the warehouse holds
     the sources in *)
  List.filter_map (find t) names

let targets t =
  List.filter_map
    (fun e ->
      Option.map
        (fun (rel, attr) -> (Source_profile.source e.sp, rel, attr))
        (Source_profile.primary_accession e.sp))
    t
