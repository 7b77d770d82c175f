open Aladin_relational

type t = {
  profile : Profile.t;
  accession_candidates : Accession.candidate list;
  fks : Inclusion.fk list;
  graph : Fk_graph.t;
  primary : Primary.scored option;
  secondary : Secondary.t option;
}

let analyze ?accession_params ?inclusion_params catalog =
  let profile = Profile.compute catalog in
  let accession_candidates = Accession.candidates ?params:accession_params profile in
  let fks = Inclusion.infer ?params:inclusion_params profile in
  let graph = Fk_graph.build ~relations:(Catalog.relation_names catalog) fks in
  let primary = Primary.choose graph accession_candidates in
  let secondary =
    Option.map
      (fun (p : Primary.scored) ->
        Secondary.discover graph ~primary:p.relation)
      primary
  in
  { profile; accession_candidates; fks; graph; primary; secondary }

let source t = Profile.source t.profile

let primary_relation t =
  Option.map (fun (p : Primary.scored) -> p.relation) t.primary

let primary_accession t =
  Option.map
    (fun (p : Primary.scored) -> (p.relation, p.accession_attribute))
    t.primary

let unique_attributes t = Profile.unique_attributes t.profile

let with_primary t ~relation =
  let catalog = Profile.catalog t.profile in
  (match Catalog.find catalog relation with
  | Some _ -> ()
  | None ->
      invalid_arg
        (Printf.sprintf "Source_profile.with_primary: unknown relation %s" relation));
  let accession_attribute =
    match
      List.find_opt
        (fun (c : Accession.candidate) ->
          String.lowercase_ascii c.relation = String.lowercase_ascii relation)
        t.accession_candidates
    with
    | Some c -> c.attribute
    | None -> (
        (* fall back to the first unique attribute, then the first attribute *)
        match
          List.find_opt
            (fun (r, _) -> String.lowercase_ascii r = String.lowercase_ascii relation)
            (unique_attributes t)
        with
        | Some (_, a) -> a
        | None -> (
            match Catalog.find catalog relation with
            | Some rel -> (
                match Schema.names (Relation.schema rel) with
                | a :: _ -> a
                | [] ->
                    invalid_arg
                      "Source_profile.with_primary: relation has no attributes")
            | None -> assert false))
  in
  let primary =
    Some
      {
        Primary.relation;
        accession_attribute;
        in_degree = Fk_graph.in_degree t.graph relation;
        score = 0.0;
      }
  in
  let secondary = Some (Secondary.discover t.graph ~primary:relation) in
  { t with primary; secondary }

let pp ppf t =
  Format.fprintf ppf "@[<v>source %s" (source t);
  (match t.primary with
  | Some p ->
      Format.fprintf ppf "@,primary: %s (accession %s, in-degree %d)" p.relation
        p.accession_attribute p.in_degree
  | None -> Format.fprintf ppf "@,primary: NOT FOUND");
  Format.fprintf ppf "@,accession candidates:";
  List.iter
    (fun (c : Accession.candidate) ->
      Format.fprintf ppf "@,  %s.%s (avg len %.1f)" c.relation c.attribute c.avg_len)
    t.accession_candidates;
  Format.fprintf ppf "@,foreign keys:";
  List.iter (fun fk -> Format.fprintf ppf "@,  %a" Inclusion.pp_fk fk) t.fks;
  (match t.secondary with
  | Some s -> Format.fprintf ppf "@,%a" Secondary.pp s
  | None -> ());
  Format.fprintf ppf "@]"
