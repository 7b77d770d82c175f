(** Data profile of one source: per-attribute statistics,
    computed once and reused by every discovery step (§3, §4.4: "These
    statistics need to be computed only once for each data source").

    The profile is the expensive part of integration; everything downstream
    reads from it instead of rescanning the catalog. *)

open Aladin_relational

type t

val compute : Catalog.t -> t

val catalog : t -> Catalog.t

val source : t -> string
(** The catalog name. *)

val stats : t -> relation:string -> attribute:string -> Col_stats.t
(** @raise Not_found for unknown attributes. *)

val all_stats : t -> Col_stats.t list
(** Relation-major, schema order. *)

val is_unique : t -> relation:string -> attribute:string -> bool
(** Declared UNIQUE/PRIMARY KEY, or probed unique from the data — the §4.2
    "SQL query for each attribute" step. *)

val unique_attributes : t -> (string * string) list
(** All (relation, attribute) pairs that are unique. *)
