open Aladin_relational
module Import_error = Aladin_resilience.Import_error
module Snapshot = Aladin_store.Snapshot

let parse_constraints doc =
  let constraints = ref [] in
  let bad = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "unique"; relation; attribute ] ->
            constraints := Constraint_def.Unique { relation; attribute } :: !constraints
        | [ "pkey"; relation; attribute ] ->
            constraints := Constraint_def.Primary_key { relation; attribute } :: !constraints
        | [ "fkey"; src_relation; src_attribute; dst_relation; dst_attribute ] ->
            constraints :=
              Constraint_def.Foreign_key
                { src_relation; src_attribute; dst_relation; dst_attribute }
              :: !constraints
        | _ -> bad := (i + 1, Printf.sprintf "bad constraint line %S" line) :: !bad)
    (String.split_on_char '\n' doc);
  (List.rev !constraints, List.rev !bad)

let render_constraints cs =
  cs
  |> List.map (function
       | Constraint_def.Unique { relation; attribute } ->
           Printf.sprintf "unique %s %s" relation attribute
       | Constraint_def.Primary_key { relation; attribute } ->
           Printf.sprintf "pkey %s %s" relation attribute
       | Constraint_def.Foreign_key
           { src_relation; src_attribute; dst_relation; dst_attribute } ->
           Printf.sprintf "fkey %s %s %s %s" src_relation src_attribute
             dst_relation dst_attribute)
  |> String.concat "\n"

(* Build a catalog from (file, content) members — the shared tolerant
   core behind both the store-snapshot and legacy-directory loaders. *)
let catalog_of_members ~name members =
  let cat = Catalog.create ~name in
  let errs = ref [] in
  let report file index reason =
    errs := { Import_error.index; reason = Printf.sprintf "%s: %s" file reason } :: !errs
  in
  List.iter
    (fun (f, content) ->
      if Filename.check_suffix f ".csv" then begin
        let rel_name = Filename.chop_suffix f ".csv" in
        match Csv.read_string content with
        | [] -> report f 0 "csv has no header"
        (* a header alone is an empty relation, which saves as exactly that *)
        | header :: rows -> (
            let arity = List.length header in
            let good = ref [] in
            List.iteri
              (fun i row ->
                if List.length row = arity then good := row :: !good
                else
                  report f (i + 1)
                    (Printf.sprintf "ragged row: %d fields, expected %d"
                       (List.length row) arity))
              rows;
            match
              Csv.relation_of_records ~name:rel_name ~header:true
                (header :: List.rev !good)
            with
            | rel -> Catalog.add cat rel
            | exception e -> report f 0 (Printexc.to_string e))
      end)
    members;
  (match List.assoc_opt "constraints.txt" members with
  | None -> ()
  | Some doc ->
      let cs, bad = parse_constraints doc in
      List.iter (fun (ln, msg) -> report "constraints.txt" ln msg) bad;
      List.iter
        (fun c ->
          match Catalog.declare cat c with
          | () -> ()
          | exception e -> report "constraints.txt" 0 (Printexc.to_string e))
        cs);
  (cat, List.rev !errs)

let members_of_catalog cat =
  List.map
    (fun rel ->
      { Snapshot.path = Relation.name rel ^ ".csv"; kind = Snapshot.Csv;
        content = Csv.write_relation rel })
    (Catalog.relations cat)
  @
  match Catalog.constraints cat with
  | [] -> []
  | cs ->
      [ { Snapshot.path = "constraints.txt"; kind = Snapshot.Records;
          content = render_constraints cs ^ "\n" } ]

let report_of_status (m : Aladin_store.Load_report.member) =
  match m.status with
  | Aladin_store.Load_report.Ok -> None
  | Salvaged n ->
      Some
        { Import_error.index = 0;
          reason =
            Printf.sprintf "%s: salvaged (%d records dropped)" m.path n }
  | Quarantined reason ->
      Some
        { Import_error.index = 0;
          reason = Printf.sprintf "%s: quarantined: %s" m.path reason }
  | Missing ->
      Some { Import_error.index = 0; reason = m.path ^ ": missing from store" }

let load_dir ~name dir =
  if Snapshot.is_store dir then
    match Snapshot.load dir with
    | Error msg -> raise (Sys_error msg)
    | Ok (members, report) ->
        let cat, errs =
          catalog_of_members ~name
            (List.map (fun (m : Snapshot.member) -> (m.path, m.content)) members)
        in
        let store_errs =
          List.filter_map report_of_status report.Aladin_store.Load_report.members
        in
        (cat, store_errs @ errs)
  else
    (* legacy layout: a plain directory of CSVs, no manifest *)
    let entries = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
    let files =
      List.filter
        (fun f -> Filename.check_suffix f ".csv" || f = "constraints.txt")
        entries
    in
    catalog_of_members ~name
      (List.map
         (fun f -> (f, Aladin_store.Atomic_file.read (Filename.concat dir f)))
         files)

let save_dir cat dir =
  Result.map ignore (Snapshot.save dir (members_of_catalog cat))
