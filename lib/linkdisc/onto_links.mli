(** Shared-term links (§4.4, third kind): "the resulting values make
    excellent links, connecting proteins with similar function [...],
    provided that the ontologies are themselves integrated as data
    sources."

    When two objects from different sources both cross-reference the same
    third object (typically an ontology term), they get a [Shared_term]
    link carrying the term as evidence. A hub target referenced by more
    than 25 objects links none of them: linking all pairs under a giant
    term is noise. *)

type result = {
  links : Link.t list;
  hub_targets_skipped : int;
}

val discover :
  ?parents:(Objref.t -> Objref.t list) ->
  xrefs:Link.t list ->
  unit ->
  result
(** Derives shared-term links from already-discovered [Xref] links.
    [parents] gives a term's direct is_a parents; when present, an xref to
    a term also counts (with decayed confidence) as a reference to its
    parents and grandparents, so objects annotated with two siblings of
    one parent term still share that parent. *)

val parents_from_profiles : Profile_list.t -> Objref.t -> Objref.t list
(** Build a parents function from discovered structure: any relation with
    two foreign keys into the same source's primary relation and a
    parent-ish second attribute name ("parent", "isa", "super", "broader")
    is treated as a hierarchy table (the OBO [term_isa] shape). *)
