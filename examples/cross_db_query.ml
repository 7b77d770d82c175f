(* The paper's flagship query (§6 conclusions):

   "Consider a query for all genes of a certain species on a certain
   chromosome that are connected to a disease via a protein whose
   function is known. [...] no current data integration system is capable
   of dealing with this variability in a transparent fashion."

   ALADIN answers it by combining SQL (to pick the starting genes) with
   traversal of the discovered link graph — here: human genes that reach a
   disease, where the gene also links to a protein carrying a functional
   (ontology) annotation. Finally a false link is rejected via the §6.2
   feedback loop and stays gone after re-analysis.

     dune exec examples/cross_db_query.exe *)

open Aladin
open Aladin_relational
module Dg = Aladin_datagen
module Lk = Aladin_links
module Lq = Aladin_access.Link_query

let () =
  let corpus = Dg.Corpus.generate Dg.Corpus.default_params in
  (* one engine handle answers SQL, traversal, feedback and export *)
  let eng = Engine.integrate corpus.catalogs in
  print_string (Aladin_system.summary (Engine.warehouse eng));
  let sql q =
    match Engine.query eng q with
    | Ok r -> r
    | Error msg ->
        prerr_endline msg;
        exit 1
  in

  (* how are the genes distributed over species? (SQL aggregates) *)
  print_endline "\ngenes per species:";
  print_endline
    (Aladin_access.Sql_eval.render_result
       (sql
          "SELECT organism_name, COUNT(*) FROM genedb.gene JOIN \
           genedb.organism ON genedb.gene.organism_id = \
           genedb.organism.organism_id GROUP BY organism_name \
           ORDER BY organism_name"));

  (* 1. SQL picks the starting objects: human genes *)
  let start_rows =
    sql
      "SELECT accession FROM genedb.gene JOIN genedb.organism ON \
       genedb.gene.organism_id = genedb.organism.organism_id WHERE \
       organism_name = 'Homo sapiens'"
  in
  let start =
    Relation.rows start_rows
    |> List.map (fun row ->
           Lk.Objref.make ~source:"genedb" ~relation:"gene"
             ~accession:(Value.to_string row.(0)))
  in
  Printf.printf "\n%d human genes to start from\n" (List.length start);

  (* 2. traverse: gene -> disease (any link into omim) *)
  let to_disease =
    Engine.traverse eng ~start ~steps:[ Lq.step ~target_source:"omim" () ]
  in
  Printf.printf "%d gene-disease connections found\n" (List.length to_disease);

  (* 3. keep genes whose protein has a known function: the gene links to a
        protein (uniprot) that itself links to an ontology term *)
  let gene_has_functional_protein gene =
    Engine.traverse eng ~start:[ gene ]
      ~steps:
        [ Lq.step ~target_source:"uniprot" ();
          Lq.step ~target_source:"go" () ]
    <> []
  in
  let answers =
    to_disease
    |> List.filter (fun (h : Lq.hit) -> gene_has_functional_protein h.start)
  in
  Printf.printf
    "%d of them go via a protein with functional annotation:\n"
    (List.length answers);
  List.iteri
    (fun i (h : Lq.hit) ->
      if i < 8 then begin
        Printf.printf "  %s -> %s (score %.2f) via\n"
          (Lk.Objref.to_string h.start)
          (Lk.Objref.to_string h.endpoint)
          h.score;
        List.iter
          (fun (l : Lk.Link.t) ->
            Printf.printf "      %s %s -> %s\n" (Lk.Link.kind_name l.kind)
              (Lk.Objref.to_string l.src) (Lk.Objref.to_string l.dst))
          h.path
      end)
    answers;

  (* 4. feedback (§6.2): reject the lowest-confidence discovered link *)
  (match
     List.sort
       (fun (a : Lk.Link.t) b -> Float.compare a.confidence b.confidence)
       (Engine.links eng)
   with
  | weakest :: _ ->
      let before = List.length (Engine.links eng) in
      let kind = Generation.Link_kind (Lk.Link.kind_name weakest.kind) in
      let gen () = Generation.get (Warehouse.generation (Engine.warehouse eng)) kind in
      let gen0 = gen () in
      Engine.reject_link eng weakest;
      Printf.printf
        "\nfeedback: rejected weakest link %s; %d -> %d links \
         (%s generation %d -> %d)\n"
        (Format.asprintf "%a" Lk.Link.pp weakest)
        before
        (List.length (Engine.links eng))
        (Lk.Link.kind_name weakest.kind) gen0 (gen ())
  | [] -> ());

  (* 5. export the whole warehouse as a browsable static web site *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "aladin_site" in
  let pages = Aladin_access.Html_export.write_site (Engine.browser eng) ~dir in
  Printf.printf "exported %d object pages to %s/index.html\n" pages dir
