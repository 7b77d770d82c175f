(** Warehouse search engine (§4.6): full-text over every object's data and
    textual annotation, with focused (vertical/horizontal) variants and
    TF-IDF ranking. *)

open Aladin_links

type t

val build : Profile_list.t -> t
(** Index each primary object: its accession, every field of its primary
    row, and every text field of the rows it owns. Field names in the index
    are ["relation.attribute"]; the accession is also indexed under
    ["accession"]. *)

type hit = { obj : Objref.t; score : float; matched : string list }
(** [matched] is sorted alphabetically. *)

val search : t -> ?limit:int -> string -> hit list
(** Ranked full-text search. Ordering is fully deterministic: descending
    score, equal scores broken by {!Objref.compare} — never by hash-table
    or schedule order — so the same query returns byte-identical results
    across runs, pool sizes, and cached vs. recomputed responses. *)

val focused :
  t -> ?source:string -> ?field:string -> ?limit:int -> string -> hit list
(** Focused search: [source] restricts horizontally (objects of one
    source), [field] vertically (one ["relation.attribute"]). Same
    deterministic ordering contract as {!search}. *)

val resolve : t -> string -> Objref.t option
(** Exact accession lookup ("known-item" access). *)
