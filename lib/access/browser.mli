(** The generic browsing front-end (§4.6).

    "Users can follow not only cross-references, but all four types of
    relationships between objects: 1. Same relation [...] 2. Dependency
    [...] 3. Duplicates [...] Conflicts are highlighted [...] 4. Linked."

    A {!view} is one object's page: its own fields, its annotations
    (secondary objects), its duplicates with highlighted conflicts, and its
    outgoing links. *)

open Aladin_links

type annotation = {
  relation : string;
  fields : (string * string) list;  (** (attribute, value) *)
}

type view = {
  obj : Objref.t;
  fields : (string * string) list;  (** the primary row *)
  annotations : annotation list;  (** rows of secondary relations owned *)
  siblings : Objref.t list;  (** neighbours within the same relation *)
  duplicates : (Objref.t * float) list;
  conflicts : Aladin_dup.Conflict.t list;
  linked : Link.t list;  (** non-duplicate links, best first *)
}

type t
(** Immutable once built, so any number of domains may view at once. *)

val create : Profile_list.t -> Link_query.t -> Aladin_dup.Object_sim.repr list -> t
(** A browser over the sources, the per-object link index of the
    warehouse's link view and the objects' representations, which a
    view compares field by field to list its conflicts with its
    duplicates. Builds, once, a lookup table over the representations
    and, per source with a primary relation, a row index: the primary
    accessions in row order, each accession's primary row (the first
    whose accession value is that text), and each primary row's owned
    secondary rows (from the owner map's {!Owner_map.row_owners}), by
    secondary entry and then by row. This is the only place a browser
    scans a relation: a {!view} looks up its own object's rows, so it
    costs time in the size of its object, not of its source. Build a new
    browser after the sources change; after a change to the links alone,
    {!with_index} is enough. *)

val with_index : t -> Link_query.t -> t
(** The browser over another link index, sharing the row indexes and
    the representation table of [t]: for a change that leaves the
    profiles and the representations as they were, such as a rejected
    link. *)

val links_of : t -> Objref.t -> Link.t list
(** The links with the object on either end ({!Link_query.links_of}):
    in link-view order, a self-link once. *)

val view : t -> Objref.t -> view option
(** [None] for unknown objects. Reads the object's own primary row, the
    secondary rows it owns (in secondary-entry order, each relation's in
    row order, labelled with the entry's name), the rows before and the
    two after it, its links and its duplicates' representations. *)

val view_accession : t -> source:string -> string -> view option

val objects : t -> Objref.t list
(** Every browsable primary object. *)

val follow : t -> view -> int -> view option
(** Follow the [i]-th link of a view (0-based into [linked]). *)

val render : view -> string
(** Plain-text "page" for CLI browsing; a conflict line is
    {!Aladin_dup.Conflict.to_string}. *)
