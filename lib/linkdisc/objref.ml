type t = { source : string; relation : string; accession : string }

let make ~source ~relation ~accession = { source; relation; accession }

let compare a b =
  match String.compare a.source b.source with
  | 0 -> (
      match String.compare a.relation b.relation with
      | 0 -> String.compare a.accession b.accession
      | c -> c)
  | c -> c

let equal a b = compare a b = 0

let hash t = Hashtbl.hash (t.source, t.relation, t.accession)

let to_string t = String.concat ":" [ t.source; t.accession ]

let pp ppf t = Format.pp_print_string ppf (to_string t)
