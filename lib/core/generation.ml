type t = {
  mutable whole : int;
  sources : (string, int) Hashtbl.t;
  kinds : (string, int) Hashtbl.t;
}

type dep = Whole | Source of string | Link_kind of string

let create () = { whole = 0; sources = Hashtbl.create 8; kinds = Hashtbl.create 8 }

let bump tbl name =
  Hashtbl.replace tbl name
    (1 + (match Hashtbl.find_opt tbl name with Some n -> n | None -> 0))

let bump_whole t = t.whole <- t.whole + 1

let bump_source t s =
  bump t.sources s;
  bump_whole t

let bump_kind t k = bump t.kinds k

let get t = function
  | Whole -> t.whole
  | Source s -> ( match Hashtbl.find_opt t.sources s with Some n -> n | None -> 0)
  | Link_kind k -> ( match Hashtbl.find_opt t.kinds k with Some n -> n | None -> 0)

(* stable total order: Whole < Source < Link_kind, then by name *)
let compare_dep a b =
  let rank = function Whole -> 0 | Source _ -> 1 | Link_kind _ -> 2 in
  match (a, b) with
  | Source x, Source y | Link_kind x, Link_kind y -> String.compare x y
  | _ -> compare (rank a) (rank b)

let key t deps =
  let deps = List.sort_uniq compare_dep deps in
  String.concat "|"
    (List.map
       (fun d ->
         match d with
         | Whole -> Printf.sprintf "w=%d" (get t d)
         | Source s -> Printf.sprintf "s:%s=%d" s (get t d)
         | Link_kind k -> Printf.sprintf "k:%s=%d" k (get t d))
       deps)
