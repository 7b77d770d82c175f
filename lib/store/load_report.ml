type status = Ok | Salvaged of int | Quarantined of string | Missing

type member = { path : string; status : status }

type t = { dir : string; generation : int; members : member list }

let status_name = function
  | Ok -> "ok"
  | Salvaged _ -> "salvaged"
  | Quarantined _ -> "quarantined"
  | Missing -> "missing"

let member_clean m = m.status = Ok

let is_clean t = List.for_all member_clean t.members

let records_dropped t =
  List.fold_left
    (fun acc m -> match m.status with Salvaged n -> acc + n | _ -> acc)
    0 t.members

let bump_salvaged t path n =
  if n <= 0 then t
  else
    {
      t with
      members =
        List.map
          (fun m ->
            if m.path <> path then m
            else
              match m.status with
              | Ok -> { m with status = Salvaged n }
              | Salvaged k -> { m with status = Salvaged (k + n) }
              | Quarantined _ | Missing -> m)
          t.members;
    }

let status_detail = function
  | Ok -> ""
  | Salvaged 0 -> "checksum repaired, no records lost"
  | Salvaged n ->
      Printf.sprintf "%d record%s dropped" n (if n = 1 then "" else "s")
  | Quarantined reason -> reason
  | Missing -> "listed in manifest, absent on disk"

let render t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "load report: %s (snapshot %d)%s\n" t.dir t.generation
    (if is_clean t then "" else " DAMAGED");
  List.iter
    (fun m ->
      Printf.bprintf buf "  %-28s %-11s %s\n" m.path (status_name m.status)
        (status_detail m.status))
    t.members;
  Buffer.contents buf
