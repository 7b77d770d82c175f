(** Steps 2 + 3 of the ALADIN pipeline for one source: profile the data,
    guess constraints, pick the primary relation, and map out the secondary
    structure. The result is the warehouse's one record of a source: the
    metadata repository renders the source's block from it, and link
    discovery consumes it. *)

open Aladin_relational

type t = {
  profile : Profile.t;
  accession_candidates : Accession.candidate list;
  fks : Inclusion.fk list;
  graph : Fk_graph.t;
  primary : Primary.scored option;
  secondary : Secondary.t option;  (** [None] iff [primary] is [None] *)
}

val analyze :
  ?accession_params:Accession.params ->
  ?inclusion_params:Inclusion.params ->
  Catalog.t ->
  t
(** Profile the catalog and discover its structure; secondary paths are
    searched up to {!Secondary.discover}'s default length. *)

val source : t -> string

val primary_relation : t -> string option

val primary_accession : t -> (string * string) option
(** (relation, attribute) of the primary accession number. *)

val with_primary : t -> relation:string -> t
(** Override the primary relation (used by the error-propagation experiment
    and by user feedback, §6.2); recomputes the secondary structure.
    @raise Invalid_argument when the relation lacks an accession candidate
    and has no attributes at all. *)

val pp : Format.formatter -> t -> unit
