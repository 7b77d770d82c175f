(* Kill-anywhere resumable integration, demonstrated exhaustively.

   A small corpus is integrated journaled — the plan written once to
   JOURNAL, the warehouse saved into the journal's store after every
   source — then the same integration is killed at every pipeline step
   boundary, at a sweep of durable-store operation counts, and at a
   sweep of byte offsets inside the store's writes. After every kill the
   run is resumed: the store's manifest is the only commit record, so
   the sources it holds are restored without recomputation, only the
   in-flight and remaining steps re-run, and the final state — source
   order, links, correspondences and run-report outcomes — is
   byte-identical to the uninterrupted run's: "kill -9 anywhere" costs
   at most one step of lost work.

     dune exec examples/kill_resume.exe *)

open Aladin
module Dg = Aladin_datagen
module Fault = Aladin_store.Fault
module Run_report = Aladin_resilience.Run_report

let corpus =
  Dg.Corpus.generate
    {
      Dg.Corpus.default_params with
      universe =
        { Dg.Universe.default_params with n_proteins = 20; n_genes = 8;
          n_structures = 6; n_diseases = 3; n_terms = 6; n_families = 3 };
      include_diseases = false;
      include_ontology = false;
      include_interactions = false;
    }

let catalogs = corpus.catalogs

let fresh_dir tag =
  let d = Filename.temp_file "aladin-kr" tag in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rm_rf path = if Sys.file_exists path then rm_rf path

(* what resume must reproduce: source order, links, correspondences and
   run-report outcomes (not timings, and not the [resumed] flag) *)
let fingerprint w =
  let corr (c : Aladin_links.Xref_disc.correspondence) =
    Printf.sprintf "%s.%s.%s>%s.%s.%s:%d:%h:%b" c.src_source c.src_relation
      c.src_attribute c.dst_source c.dst_relation c.dst_attribute c.matches
      c.match_frac c.encoded
  in
  let rec step (s : Run_report.step_report) =
    Printf.sprintf "%s=%s[%s]" s.step
      (Run_report.outcome_name s.outcome)
      (String.concat ";" (List.map step s.children))
  in
  let report (r : Run_report.t) =
    Printf.sprintf "%s%s: %s" r.source
      (if r.quarantined then " (quarantined)" else "")
      (String.concat " " (List.map step r.steps))
  in
  String.concat "\n"
    ((String.concat "," (Warehouse.sources w)
     :: Aladin_access.Link_export.to_csv (Warehouse.links w)
     :: List.map corr (Warehouse.correspondences w))
    @ List.map report (Warehouse.run_reports w))

let integrate_into dir =
  match Warehouse.integrate_journaled ~journal:dir catalogs with
  | Ok (w, info) -> (w, info)
  | Error e -> failwith e

(* one kill/resume round: arm, expect the kill, disarm, resume, compare *)
let kill_and_resume ~expect ~label arm =
  let dir = fresh_dir "kill" in
  Fault.reset_counters ();
  arm ();
  let killed =
    match Warehouse.integrate_journaled ~journal:dir catalogs with
    | Ok _ | Error _ -> false
    | exception Fault.Killed -> true
  in
  Fault.disarm ();
  if not killed then begin
    rm_rf dir;
    false (* the armed budget outlived the run: nothing to resume *)
  end
  else begin
    let w, (info : Warehouse.resume_info) = integrate_into dir in
    if fingerprint w <> expect then
      failwith (label ^ ": resumed state differs from the uninterrupted run");
    let covered = info.resumed_sources @ info.executed_sources in
    List.iter
      (fun c ->
        let n = Aladin_relational.Catalog.name c in
        if not (List.mem n covered) then
          failwith (label ^ ": source " ^ n ^ " missing after resume"))
      catalogs;
    rm_rf dir;
    true
  end

let () =
  (* the uninterrupted baseline, with the chaos counters running so we
     know how many step boundaries, ops and bytes a clean run spends *)
  let base_dir = fresh_dir "base" in
  Fault.reset_counters ();
  let w0, _ = integrate_into base_dir in
  let bytes_total, ops_total, steps_total = Fault.counters () in
  let expect = fingerprint w0 in
  rm_rf base_dir;
  Printf.printf
    "clean run: %d sources, %d step boundaries, %d store ops, %d bytes\n%!"
    (List.length catalogs) steps_total ops_total bytes_total;

  (* 1. every pipeline step boundary *)
  let step_kills = ref 0 in
  for k = 0 to steps_total - 1 do
    if
      kill_and_resume ~expect
        ~label:(Printf.sprintf "step %d" k)
        (fun () -> Fault.arm_step ~index:k)
    then incr step_kills
  done;
  Printf.printf "step sweep: %d/%d kill points resumed byte-identical\n%!"
    !step_kills steps_total;

  (* 2. a sweep of durable-operation counts *)
  let op_kills = ref 0 and op_points = 12 in
  for i = 0 to op_points - 1 do
    let k = i * ops_total / op_points in
    if
      kill_and_resume ~expect
        ~label:(Printf.sprintf "op %d" k)
        (fun () -> Fault.arm_ops ~ops:k)
    then incr op_kills
  done;
  Printf.printf "op sweep: %d/%d kill points resumed byte-identical\n%!"
    !op_kills op_points;

  (* 3. a sweep of byte offsets inside the journaled writes *)
  let byte_kills = ref 0 and byte_points = 16 in
  for i = 0 to byte_points - 1 do
    let k = i * bytes_total / byte_points in
    if
      kill_and_resume ~expect
        ~label:(Printf.sprintf "byte %d" k)
        (fun () -> Fault.arm ~bytes:k)
    then incr byte_kills
  done;
  Printf.printf "byte sweep: %d/%d kill points resumed byte-identical\n%!"
    !byte_kills byte_points;

  Printf.printf
    "kill/resume sweep passed: every kill resumed to a byte-identical state\n"
