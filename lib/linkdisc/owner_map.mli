(** Mapping rows of any relation to the primary objects that own them.

    Link and duplicate discovery operate on primary objects, but the
    evidence (a cross-reference value, a sequence, a description) often
    lives in a secondary relation. The owner map follows the discovered
    secondary paths (§4.3) back to the primary relation, so every row can
    be attributed to its accession-numbered object. *)

open Aladin_discovery

type t

val build : Source_profile.t -> t
(** Requires a discovered primary relation; otherwise the map is empty. *)

val row_owners : t -> relation:string -> string list array
(** The accessions of the primary objects owning each row of the
    relation, indexed by row ([[||]] for an unknown relation): each list
    sorted and free of repeats. The
    map's own array, so a caller indexing a whole relation pays no copy;
    do not write to it. *)

val objref : t -> accession:string -> Objref.t option
(** The {!Objref.t} for a primary accession of this source. *)

val primary_accessions : t -> string list
(** All accessions of the primary relation, in row order. *)

val object_of_row : t -> relation:string -> row:int -> Objref.t list
(** The row's owners ({!row_owners}) as {!Objref.t}s ({!objref}). *)
