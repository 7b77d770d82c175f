(** The set of analyzed sources link discovery works over: each source's
    {!Aladin_discovery.Source_profile.t} paired with its {!Owner_map.t}. *)

open Aladin_discovery

type entry = { sp : Source_profile.t; owner : Owner_map.t }

type t

val of_profiles : Source_profile.t list -> t

val empty : t

val add : t -> Source_profile.t -> t
(** Append one analyzed source (owner map built once here); an existing
    entry with the same source name is replaced. *)

val entries : t -> entry list

val sources : t -> string list

val find : t -> string -> entry option
(** By source name. *)

val restrict : t -> string list -> t
(** The sub-list holding exactly the named sources, in the order of
    [names] (unknown names are skipped). Entries are shared with the
    original — no owner map is rebuilt — so restricting to a canonical
    source pair is how the delta pipeline runs a pairwise pass. *)

val targets : t -> (string * string * string) list
(** Possible link targets: "cross-references always point to primary
    objects in other databases" (§3) — (source, relation, accession
    attribute) of every discovered primary relation. *)
