open Aladin_relational

type params = {
  seed : int;
  universe : Universe.params;
  n_protein_sources : int;
  include_structures : bool;
  include_genes : bool;
  include_diseases : bool;
  include_ontology : bool;
  include_interactions : bool;
  include_flat_file : bool;
  coverage : float;
  xref_prob : float;
  corruption : float;
  fk_noise : float;
  generic_fk_names : bool;
  declare_constraints : bool;
}

let default_params =
  {
    seed = 42;
    universe = Universe.default_params;
    n_protein_sources = 2;
    include_structures = true;
    include_genes = true;
    include_diseases = true;
    include_ontology = true;
    include_interactions = true;
    include_flat_file = false;
    coverage = 0.7;
    xref_prob = 0.8;
    corruption = 0.0;
    fk_noise = 0.0;
    generic_fk_names = false;
    declare_constraints = false;
  }

type t = {
  params : params;
  universe : Universe.t;
  catalogs : Catalog.t list;
  gold : Gold.t;
}

let protein_patterns = [| "P#####"; "@#####"; "Q#@@##"; "X####@" |]

let protein_source_name i =
  match i with
  | 0 -> "uniprot"
  | 1 -> "pir"
  | n -> Printf.sprintf "protdb%d" n

let shape_for params ~primary_name ~pattern ~with_seq ~with_kw ~with_org =
  {
    Source_gen.primary_name;
    accession_pattern = pattern;
    with_sequence_table = with_seq;
    n_comment_tables = 1;
    with_keyword_dictionary = with_kw;
    with_organism_dictionary = with_org;
    xref_style = Source_gen.Separate_db_column;
    generic_fk_names = params.generic_fk_names;
    declare_constraints = params.declare_constraints;
  }

let generate (params : params) =
  let universe = Universe.generate { params.universe with seed = params.seed } in
  let ontology_name = "go" in
  let protein_names =
    List.init params.n_protein_sources protein_source_name
  in
  let specs = ref [] in
  let push s = specs := s :: !specs in
  (* ontology first: others reference it *)
  if params.include_ontology then
    push
      (Source_gen.make_spec ~name:ontology_name Universe.Term
         ~coverage:1.0 ~xref_prob:params.xref_prob ~seed:(params.seed + 900)
         ~shape:
           { (shape_for params ~primary_name:"term" ~pattern:"GO:00#####"
                ~with_seq:false ~with_kw:false ~with_org:false)
             with n_comment_tables = 1 });
  List.iteri
    (fun i name ->
      let xref_to =
        (if params.include_ontology then [ ontology_name ] else [])
        @ (if params.include_structures && i = 0 then [ "pdb" ] else [])
      in
      push
        (Source_gen.make_spec ~name Universe.Protein ~coverage:params.coverage
           ~xref_to ~xref_prob:params.xref_prob
           ~corruption:params.corruption ~fk_noise:params.fk_noise
           ~seed:(params.seed + 100 + i)
           ~shape:
             (shape_for params ~primary_name:(if i = 0 then "entry" else "protein")
                ~pattern:protein_patterns.(i mod Array.length protein_patterns)
                ~with_seq:true ~with_kw:true ~with_org:true)))
    protein_names;
  if params.include_structures then
    push
      (Source_gen.make_spec ~name:"pdb" Universe.Structure
         ~coverage:params.coverage
         ~xref_to:(List.filteri (fun i _ -> i < 1) protein_names)
         ~xref_prob:params.xref_prob ~corruption:params.corruption
         ~seed:(params.seed + 300)
         ~shape:
           { (shape_for params ~primary_name:"structure" ~pattern:"#@@@"
                ~with_seq:true ~with_kw:false ~with_org:true)
             with xref_style = Source_gen.Encoded });
  if params.include_genes then
    push
      (Source_gen.make_spec ~name:"genedb" Universe.Gene
         ~coverage:params.coverage
         ~xref_to:
           ((match protein_names with p :: _ -> [ p ] | [] -> [])
           @ if params.include_diseases then [ "omim" ] else [])
         ~xref_prob:params.xref_prob ~corruption:params.corruption
         ~seed:(params.seed + 400)
         ~shape:
           (shape_for params ~primary_name:"gene" ~pattern:"ENSG000####"
              ~with_seq:true ~with_kw:true ~with_org:true));
  if params.include_diseases then
    push
      (Source_gen.make_spec ~name:"omim" Universe.Disease ~coverage:1.0
         ~xref_to:(if params.include_genes then [ "genedb" ] else [])
         ~xref_prob:params.xref_prob ~seed:(params.seed + 500)
         ~shape:
           (shape_for params ~primary_name:"disease" ~pattern:"MIM###"
              ~with_seq:false ~with_kw:false ~with_org:false));
  let specs = List.rev !specs in
  (* phase 1: accession assignment for every source *)
  let assignment =
    List.map
      (fun (s : Source_gen.spec) ->
        (s.source_name, Source_gen.assign_accessions universe s))
      specs
  in
  (* the XML interaction sources (BIND/MINT roles) get assignments via
     throwaway specs; their catalogs come from the generic shredder *)
  let interaction_names = if params.include_interactions then [ "bind"; "mint" ] else [] in
  let interaction_patterns = [| "BI####@"; "MT####@" |] in
  let assignment =
    List.mapi
      (fun i iname ->
        let spec =
          Source_gen.make_spec ~name:iname Universe.Interaction
            ~coverage:(Float.min 1.0 (params.coverage +. 0.1))
            ~seed:(params.seed + 800 + i)
            ~shape:
              { Source_gen.default_shape with
                accession_pattern = interaction_patterns.(i mod 2) }
        in
        (iname, Source_gen.assign_accessions universe spec))
      interaction_names
    @ assignment
  in
  (* the flat-file source gets its own assignment *)
  let flat_name = "swissflat" in
  let assignment =
    if params.include_flat_file then begin
      let spec =
        Source_gen.make_spec ~name:flat_name Universe.Protein
          ~coverage:params.coverage ~seed:(params.seed + 600)
          ~shape:
            { Source_gen.default_shape with accession_pattern = "O#####" }
      in
      (flat_name, Source_gen.assign_accessions universe spec) :: assignment
    end
    else assignment
  in
  (* phase 2: build catalogs, recording gold *)
  let gold = Gold.create () in
  let catalogs =
    List.map (fun s -> Source_gen.build universe assignment ~gold s) specs
  in
  let catalogs =
    catalogs
    @ List.mapi
        (fun i iname ->
          let doc =
            Xml_gen.document ~seed:(params.seed + 850 + i) universe ~assignment
              ~gold ~name:iname ~partner_sources:protein_names
          in
          Aladin_formats.Xml_shred.shred_string ~name:iname doc)
        interaction_names
  in
  let catalogs =
    if params.include_flat_file then begin
      let xref_to =
        (if params.include_ontology then [ ontology_name ] else [])
        @ match protein_names with _ :: _ -> [] | [] -> []
      in
      let doc =
        Biosql_gen.flat_file ~seed:(params.seed + 700) universe ~assignment
          ~gold ~name:flat_name ~xref_to
      in
      catalogs @ [ Aladin_formats.Swissprot.parse ~name:flat_name doc ]
    end
    else catalogs
  in
  { params; universe; catalogs; gold }
