open Aladin_relational

type xref_style = Separate_db_column | Encoded

type shape = {
  primary_name : string;
  accession_pattern : string;
  with_sequence_table : bool;
  n_comment_tables : int;
  with_keyword_dictionary : bool;
  with_organism_dictionary : bool;
  xref_style : xref_style;
  generic_fk_names : bool;
  declare_constraints : bool;
}

let default_shape =
  {
    primary_name = "entry";
    accession_pattern = "P#####";
    with_sequence_table = true;
    n_comment_tables = 1;
    with_keyword_dictionary = true;
    with_organism_dictionary = true;
    xref_style = Separate_db_column;
    generic_fk_names = false;
    declare_constraints = false;
  }

type spec = {
  source_name : string;
  kind : Universe.kind;
  coverage : float;
  shape : shape;
  xref_to : string list;
  xref_prob : float;
  corruption : float;
  fk_noise : float;
  seed : int;
}

let make_spec ?(shape = default_shape) ?(coverage = 0.8) ?(xref_to = [])
    ?(xref_prob = 0.8) ?(corruption = 0.0) ?(fk_noise = 0.0) ?(seed = 7) ~name
    kind =
  { source_name = name; kind; coverage; shape; xref_to; xref_prob;
    corruption; fk_noise; seed }

let assign_accessions universe spec =
  let rng = Rng.create (spec.seed * 31 + 1) in
  let pool = Universe.of_kind universe spec.kind in
  let n =
    max 1 (int_of_float (spec.coverage *. float_of_int (List.length pool)))
  in
  let chosen = Rng.sample rng n (List.map (fun e -> e.Universe.uid) pool) in
  let seen = Hashtbl.create 64 in
  List.map
    (fun uid ->
      let rec fresh attempts =
        let acc = Rng.pattern rng spec.shape.accession_pattern in
        if Hashtbl.mem seen acc && attempts < 100 then fresh (attempts + 1)
        else begin
          Hashtbl.replace seen acc ();
          acc
        end
      in
      (uid, fresh 0))
    (List.sort Int.compare chosen)

type assignment = (string * (int * string) list) list

let fk_name shape = if shape.generic_fk_names then "obj_ref" else shape.primary_name ^ "_id"

let corruptv rng rate s = if rate > 0.0 then Corrupt.value rng ~rate s else s

let build universe assignment ~gold spec =
  let rng = Rng.create (spec.seed * 31 + 1000) in
  let shape = spec.shape in
  let own =
    match List.assoc_opt spec.source_name assignment with
    | Some l -> l
    | None ->
        invalid_arg
          (Printf.sprintf "Source_gen.build: %s missing from assignment"
             spec.source_name)
  in
  let cat = Catalog.create ~name:spec.source_name in
  let p = shape.primary_name in
  let pid = p ^ "_id" in
  let fk = fk_name shape in
  let expected_fks = ref [] in
  let expect ~src_relation ~src_attribute ~dst_relation ~dst_attribute =
    expected_fks :=
      { Gold.src_relation; src_attribute; dst_relation; dst_attribute }
      :: !expected_fks
  in
  (* --- primary relation --- *)
  let organism_dict : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let organisms_in_order = ref [] in
  let organism_id name =
    match Hashtbl.find_opt organism_dict name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length organism_dict + 1 in
        Hashtbl.add organism_dict name id;
        organisms_in_order := (id, name) :: !organisms_in_order;
        id
  in
  let primary_cols =
    [ pid; "accession"; "name"; "description" ]
    @ (if shape.with_organism_dictionary then [ "organism_id" ] else [ "organism" ])
  in
  let primary = Catalog.create_relation cat ~name:p (Schema.of_names primary_cols) in
  let row_of_entity i (uid, acc) =
    let e = Universe.entity universe uid in
    let base =
      [ Value.Int (i + 1); Value.text acc;
        Value.text (corruptv rng spec.corruption e.Universe.name);
        Value.text (corruptv rng spec.corruption e.Universe.description) ]
    in
    let tail =
      if shape.with_organism_dictionary then
        [ Value.Int (organism_id e.Universe.organism) ]
      else [ Value.text e.Universe.organism ]
    in
    Array.of_list (base @ tail)
  in
  List.iteri (fun i ea -> Relation.insert primary (row_of_entity i ea)) own;
  (* --- organism dictionary --- *)
  if shape.with_organism_dictionary then begin
    let org =
      Catalog.create_relation cat ~name:"organism"
        (Schema.of_names [ "organism_id"; "organism_name" ])
    in
    List.iter
      (fun (id, name) -> Relation.insert org [| Value.Int id; Value.text name |])
      (List.rev !organisms_in_order);
    expect ~src_relation:p ~src_attribute:"organism_id" ~dst_relation:"organism"
      ~dst_attribute:"organism_id"
  end;
  (* --- 1:1 sequence table --- *)
  if shape.with_sequence_table then begin
    let seqrel =
      Catalog.create_relation cat ~name:"sequence_data"
        (Schema.of_names [ fk; "seq_length"; "seq_text" ])
    in
    List.iteri
      (fun i (uid, _) ->
        let e = Universe.entity universe uid in
        match e.Universe.sequence with
        | Some s ->
            Relation.insert seqrel
              [| Value.Int (i + 1); Value.Int (String.length s); Value.text s |]
        | None -> ())
      own;
    expect ~src_relation:"sequence_data" ~src_attribute:fk ~dst_relation:p
      ~dst_attribute:pid
  end;
  (* --- 1:N comment tables --- *)
  for c = 1 to shape.n_comment_tables do
    let name = if shape.n_comment_tables = 1 then "comment" else Printf.sprintf "comment%d" c in
    let rel =
      Catalog.create_relation cat ~name
        (Schema.of_names [ name ^ "_id"; fk; name ^ "_text" ])
    in
    let next = ref 1 in
    List.iteri
      (fun i (uid, _) ->
        let e = Universe.entity universe uid in
        let n_comments = Rng.range rng 0 3 in
        for _ = 1 to n_comments do
          let mention =
            if e.Universe.related <> [] && Rng.chance rng 0.5 then
              match Universe.entity universe (Rng.choice rng e.Universe.related) with
              | r -> Some r.Universe.name
              | exception Not_found -> None
            else None
          in
          let text = Names.description rng ?mention e.Universe.name in
          let fk_value =
            if spec.fk_noise > 0.0 && Rng.chance rng spec.fk_noise then
              (* dangling reference: no such primary id exists *)
              Value.Int (100000 + !next)
            else Value.Int (i + 1)
          in
          Relation.insert rel
            [| Value.Int !next; fk_value;
               Value.text (corruptv rng spec.corruption text) |];
          incr next
        done)
      own;
    expect ~src_relation:name ~src_attribute:fk ~dst_relation:p ~dst_attribute:pid
  done;
  (* --- keyword dictionary + bridge --- *)
  if shape.with_keyword_dictionary then begin
    let kw_dict : (string, int) Hashtbl.t = Hashtbl.create 32 in
    let kws_in_order = ref [] in
    let kw_id k =
      match Hashtbl.find_opt kw_dict k with
      | Some id -> id
      | None ->
          let id = Hashtbl.length kw_dict + 1 in
          Hashtbl.add kw_dict k id;
          kws_in_order := (id, k) :: !kws_in_order;
          id
    in
    let bridge =
      Catalog.create_relation cat ~name:(p ^ "_keyword")
        (Schema.of_names [ fk; "keyword_id" ])
    in
    List.iteri
      (fun i (uid, _) ->
        let e = Universe.entity universe uid in
        List.iter
          (fun k ->
            Relation.insert bridge [| Value.Int (i + 1); Value.Int (kw_id k) |])
          e.Universe.keywords)
      own;
    let kwrel =
      Catalog.create_relation cat ~name:"keyword"
        (Schema.of_names [ "keyword_id"; "keyword_name" ])
    in
    List.iter
      (fun (id, k) -> Relation.insert kwrel [| Value.Int id; Value.text k |])
      (List.rev !kws_in_order);
    expect ~src_relation:(p ^ "_keyword") ~src_attribute:fk ~dst_relation:p
      ~dst_attribute:pid;
    expect ~src_relation:(p ^ "_keyword") ~src_attribute:"keyword_id"
      ~dst_relation:"keyword" ~dst_attribute:"keyword_id"
  end;
  (* --- is_a hierarchy for ontology-style sources (OBO term_isa shape) --- *)
  if spec.kind = Universe.Term && List.length own >= 3 then begin
    let isa =
      Catalog.create_relation cat ~name:(p ^ "_isa")
        (Schema.of_names [ pid; "parent_id" ])
    in
    (* a forest: every term except the first few points at an earlier one *)
    List.iteri
      (fun i (_, _) ->
        if i >= 2 then
          Relation.insert isa
            [| Value.Int (i + 1); Value.Int (1 + Rng.int rng i) |])
      own;
    expect ~src_relation:(p ^ "_isa") ~src_attribute:pid ~dst_relation:p
      ~dst_attribute:pid;
    expect ~src_relation:(p ^ "_isa") ~src_attribute:"parent_id" ~dst_relation:p
      ~dst_attribute:pid
  end;
  (* --- cross-references --- *)
  if spec.xref_to <> [] then begin
    let cols =
      match shape.xref_style with
      | Separate_db_column -> [ "dbxref_id"; fk; "db_name"; "accession" ]
      | Encoded -> [ "dbxref_id"; fk; "xref" ]
    in
    let xrel = Catalog.create_relation cat ~name:"dbxref" (Schema.of_names cols) in
    let next = ref 1 in
    List.iteri
      (fun i (uid, own_acc) ->
        let e = Universe.entity universe uid in
        List.iter
          (fun target ->
            match List.assoc_opt target assignment with
            | None -> ()
            | Some target_accs ->
                (* candidate uids in the target: self, related, and term
                   entities named by our keywords *)
                let related_uids = uid :: e.Universe.related in
                let keyword_uids =
                  List.filter_map
                    (fun (tuid, _) ->
                      match Universe.entity universe tuid with
                      | te when te.Universe.kind = Universe.Term
                                && List.mem te.Universe.name e.Universe.keywords ->
                          Some tuid
                      | _ -> None
                      | exception Not_found -> None)
                    target_accs
                in
                let candidates =
                  List.sort_uniq Int.compare (related_uids @ keyword_uids)
                in
                List.iter
                  (fun cand_uid ->
                    match List.assoc_opt cand_uid target_accs with
                    | None -> ()
                    | Some target_acc ->
                        if Rng.chance rng spec.xref_prob then begin
                          let row =
                            match shape.xref_style with
                            | Separate_db_column ->
                                [| Value.Int !next; Value.Int (i + 1);
                                   Value.text (String.uppercase_ascii target);
                                   Value.text target_acc |]
                            | Encoded ->
                                [| Value.Int !next; Value.Int (i + 1);
                                   Value.text
                                     (String.uppercase_ascii target ^ ":"
                                     ^ target_acc) |]
                          in
                          Relation.insert xrel row;
                          incr next;
                          Gold.add_xref gold
                            ~src:(Gold.obj_key ~source:spec.source_name
                                    ~accession:own_acc)
                            ~dst:(Gold.obj_key ~source:target
                                    ~accession:target_acc)
                        end)
                  candidates)
          spec.xref_to)
      own;
    expect ~src_relation:"dbxref" ~src_attribute:fk ~dst_relation:p
      ~dst_attribute:pid
  end;
  (* --- declared constraints --- *)
  if shape.declare_constraints then begin
    Catalog.declare cat (Constraint_def.Primary_key { relation = p; attribute = pid });
    Catalog.declare cat (Constraint_def.Unique { relation = p; attribute = "accession" });
    List.iter
      (fun (e : Gold.expected_fk) ->
        Catalog.declare cat
          (Constraint_def.Foreign_key
             { src_relation = e.src_relation; src_attribute = e.src_attribute;
               dst_relation = e.dst_relation; dst_attribute = e.dst_attribute }))
      !expected_fks
  end;
  Gold.add_source gold
    {
      Gold.source = spec.source_name;
      primary_relation = p;
      accession_attribute = "accession";
      fks = List.rev !expected_fks;
      objects = List.map (fun (uid, acc) -> (acc, uid)) own;
    };
  cat

let build_dual_primary universe ~name =
  let rng = Rng.create 77 in
  let cat = Catalog.create ~name in
  let genes = Universe.of_kind universe Universe.Gene in
  let n_genes = max 4 (List.length genes) in
  let n_clones = max 3 (n_genes / 2) in
  let clone_rel =
    Catalog.create_relation cat ~name:"clone"
      (Schema.of_names [ "clone_id"; "accession"; "clone_desc" ])
  in
  for i = 1 to n_clones do
    Relation.insert clone_rel
      [| Value.Int i; Value.text (Rng.pattern rng "CL###@@#");
         Value.text (Names.description rng (Printf.sprintf "clone %d" i)) |]
  done;
  let gene_rel =
    Catalog.create_relation cat ~name:"gene"
      (Schema.of_names [ "gene_id"; "accession"; "gene_name"; "gene_desc" ])
  in
  List.iteri
    (fun i (e : Universe.entity) ->
      Relation.insert gene_rel
        [| Value.Int (i + 1); Value.text (Rng.pattern rng "ENSG00####");
           Value.text e.name; Value.text e.description |])
    (if genes = [] then
       List.init n_genes (fun i ->
           { Universe.uid = -i; kind = Universe.Gene;
             name = Names.gene_symbol rng;
             long_name = ""; description = Names.description rng "gene";
             sequence = None; family = None; keywords = []; related = [];
             organism = "" })
     else genes);
  let n_genes = Relation.cardinality gene_rel in
  (* the raison d'etre of the source: which genes lie on which clones *)
  let bridge =
    Catalog.create_relation cat ~name:"clone_gene"
      (Schema.of_names [ "clone_id"; "gene_id" ])
  in
  for g = 1 to n_genes do
    Relation.insert bridge [| Value.Int (1 + Rng.int rng n_clones); Value.Int g |]
  done;
  (* annotations on each primary *)
  let clone_note =
    Catalog.create_relation cat ~name:"clone_note"
      (Schema.of_names [ "clone_note_id"; "clone_id"; "note_text" ])
  in
  for i = 1 to n_clones do
    Relation.insert clone_note
      [| Value.Int i; Value.Int i;
         Value.text (Names.description rng (Printf.sprintf "note %d" i)) |]
  done;
  let gene_note =
    Catalog.create_relation cat ~name:"gene_note"
      (Schema.of_names [ "gene_note_id"; "gene_id"; "note_text" ])
  in
  for i = 1 to n_genes do
    Relation.insert gene_note
      [| Value.Int i; Value.Int (1 + ((i * 3) mod n_genes));
         Value.text (Names.description rng (Printf.sprintf "gene note %d" i)) |]
  done;
  (* a 1:1 sequence for clones keeps their in-degree above average *)
  let clone_seq =
    Catalog.create_relation cat ~name:"clone_seq"
      (Schema.of_names [ "clone_id"; "seq_text" ])
  in
  for i = 1 to n_clones do
    Relation.insert clone_seq
      [| Value.Int i; Value.text (Seq_gen.dna rng (60 + Rng.int rng 120)) |]
  done;
  (cat, [ ("clone", "accession"); ("gene", "accession") ])
