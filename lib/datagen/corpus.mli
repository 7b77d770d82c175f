(** Whole-corpus generation: a universe plus a family of overlapping,
    cross-referencing sources in several formats, with full gold standard.

    The default corpus mirrors the paper's world: two overlapping protein
    databases (Swiss-Prot/PIR-style — duplicates), a protein-structure
    database (PDB-style), a gene database, a disease database, an ontology
    (GO-style), and optionally a flat-file source that is round-tripped
    through the real Swiss-Prot parser. *)

open Aladin_relational

type params = {
  seed : int;
  universe : Universe.params;
  n_protein_sources : int;  (** >= 1; overlapping -> duplicates *)
  include_structures : bool;
  include_genes : bool;
  include_diseases : bool;
  include_ontology : bool;
  include_interactions : bool;
      (** two overlapping XML interaction sources (BIND/MINT roles) imported
          through the generic shredder *)
  include_flat_file : bool;  (** a source parsed from generated flat text *)
  coverage : float;
  xref_prob : float;
  corruption : float;
  fk_noise : float;  (** dangling-FK rate in protein sources' annotations *)
  generic_fk_names : bool;
  declare_constraints : bool;
}

val default_params : params

type t = {
  params : params;
  universe : Universe.t;
  catalogs : Catalog.t list;
  gold : Gold.t;
}

val generate : params -> t
