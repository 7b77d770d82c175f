open Aladin_relational
open Aladin_discovery
open Aladin_links
module Fm = Aladin_formats
module Import_error = Aladin_resilience.Import_error

let source_name_of_path path =
  let base = Filename.basename path in
  match String.rindex_opt base '.' with
  | Some i when not (Sys.file_exists path && Sys.is_directory path) ->
      String.sub base 0 i
  | Some _ | None -> base

let import_file path =
  Fm.Import.import_path ~name:(source_name_of_path path) path

let integrate_paths ?config ?trace paths =
  let t = Warehouse.create ?config () in
  List.iter
    (fun path ->
      match import_file path with
      | Ok (im : Fm.Import.import) ->
          ignore
            (Warehouse.add_source ?trace ~import_errors:im.record_errors t
               im.catalog)
      | Error err ->
          ignore
            (Warehouse.report_import_failure t
               ~source:(source_name_of_path path) err))
    paths;
  t

let summary w =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "ALADIN warehouse: %d sources\n" (List.length (Warehouse.sources w));
  List.iter
    (fun name ->
      match Warehouse.profile w name with
      | None -> ()
      | Some sp ->
          let n_rels =
            List.length (Catalog.relations (Profile.catalog sp.profile))
          in
          (match Source_profile.primary_accession sp with
          | Some (rel, attr) ->
              add "  %-12s %2d relations, primary=%s (key %s), %d FKs\n" name
                n_rels rel attr (List.length sp.fks)
          | None ->
              add "  %-12s %2d relations, primary NOT FOUND, %d FKs\n" name
                n_rels (List.length sp.fks)))
    (Warehouse.sources w);
  let links = Warehouse.links w in
  add "links: %d total\n" (List.length links);
  List.iter
    (fun (kind, n) -> add "  %-12s %d\n" (Link.kind_name kind) n)
    (Linker.count_by_kind links);
  add "duplicate clusters: %d\n"
    (List.length (Warehouse.duplicates w).clusters);
  Buffer.contents buf
