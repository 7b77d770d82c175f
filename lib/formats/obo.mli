(** OBO-style ontology parser (Gene Ontology flavour).

    [Term] stanzas with [id:], [name:], [def:], [namespace:] and repeated
    [is_a:] tags. Produces a catalog with a [term] relation and a
    [term_isa(term_id, parent_id)] relationship table — ontologies are
    themselves integrated as data sources (§4.4). *)

open Aladin_relational

type term = {
  id : string;
  name : string;
  definition : string;
  namespace : string;
  is_a : string list;
}

val parse : ?name:string -> string -> Catalog.t

val render : term list -> string
