(* Incremental source addition and the change policy (paper §3, §6.2).

   Sources are added one at a time; after each addition the warehouse
   re-links the new source against everything already integrated (the
   per-source statistics are computed once and reused). Then a data
   change below the re-analysis threshold is deferred, and a large one
   triggers re-integration. Finally the warehouse is saved as a store and
   loaded back, showing that the discovered knowledge is durable.

     dune exec examples/incremental_integration.exe *)

open Aladin
module Dg = Aladin_datagen

let () =
  let corpus =
    Dg.Corpus.generate
      { Dg.Corpus.default_params with
        universe =
          { Dg.Universe.default_params with n_proteins = 50; n_structures = 20;
            n_genes = 20; n_terms = 12; n_diseases = 6; n_families = 6 } }
  in
  let w = Warehouse.create () in
  List.iter
    (fun catalog ->
      let name = Aladin_relational.Catalog.name catalog in
      let report = Warehouse.add_source w catalog in
      Printf.printf "added %-10s -> %4d links in warehouse (%.3fs)\n" name
        (List.length (Warehouse.links w))
        (Warehouse.Run_report.total_seconds report))
    corpus.catalogs;

  (* change policy: a trickle of changes defers, a bulk change reanalyzes *)
  print_endline "\nchange policy (threshold 10% of rows):";
  (match Warehouse.notify_change w ~source:"uniprot" ~changed_rows:2 with
  | `Defer -> print_endline "  2 changed rows -> deferred"
  | `Reanalyze -> print_endline "  2 changed rows -> reanalyze (unexpected)");
  (match Warehouse.catalog w "uniprot" with
  | Some cat -> (
      let bulk = Aladin_relational.Catalog.total_rows cat in
      let upd = Warehouse.update_source w cat ~changed_rows:bulk in
      match upd.Warehouse.outcome with
      | `Reanalyzed (report : Warehouse.Run_report.t) ->
          Printf.printf "  %d changed rows -> reanalyzed (%d steps)\n" bulk
            (List.length report.steps);
          (match upd.Warehouse.delta with
          | Some a ->
              Printf.printf "  delta: %d pairs recomputed, %d reused\n"
                (List.length a.Delta.recomputed_pairs)
                (List.length a.Delta.reused_pairs)
          | None -> ())
      | `Deferred -> print_endline "  bulk change deferred (unexpected)")
  | None -> ());

  (* the warehouse survives a save_dir/load_dir round trip: the links
     come back from the store's pairs.txt *)
  let dir = Filename.temp_file "aladin" "store" in
  Sys.remove dir;
  (match Warehouse.save_dir w dir with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let reloaded, _ = Warehouse.load_dir dir in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  rm_rf dir;
  Printf.printf "\nstore round trip: %d sources, %d links after reload (%d before)\n"
    (List.length (Warehouse.sources reloaded))
    (List.length (Warehouse.links reloaded))
    (List.length (Warehouse.links w));
  print_endline "\nper-source summary (relations, rows, links touching it):";
  List.iter
    (fun catalog ->
      let name = Aladin_relational.Catalog.name catalog in
      let links =
        List.length
          (List.filter
             (fun (l : Aladin_links.Link.t) ->
               l.src.source = name || l.dst.source = name)
             (Warehouse.links reloaded))
      in
      Printf.printf "  %-10s %2d relations %5d rows %5d links\n" name
        (List.length (Aladin_relational.Catalog.relations catalog))
        (Aladin_relational.Catalog.total_rows catalog)
        links)
    (Warehouse.catalogs reloaded)
