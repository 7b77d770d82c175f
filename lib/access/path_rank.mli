(** Path-based ranking between objects in the link graph.

    §6: "query results can be ordered based on the number, consistency, and
    length of different paths between two objects" (cf. BioFast
    [BLM+04]). The relatedness of two objects aggregates every simple path
    up to a depth bound: each path contributes the product of its link
    confidences, discounted by length.

    Paths run over the engine's one per-object link index
    ({!Link_query.t}, an undirected multigraph over the links of every
    kind); this module keeps no adjacency of its own. *)

open Aladin_links

val relatedness : Link_query.t -> Objref.t -> Objref.t -> float
(** Sum over simple paths of length at most 3 of
    [0.5^(len-1) * prod confidence]. 0 when unconnected. The paths are summed in the order
    {!Link_query.iter_adjacent} walks them, so the float result is the
    same on every call. *)

val rank_from : Link_query.t -> Objref.t -> (Objref.t * float) list
(** All objects reachable within 3 links, by descending relatedness
    (ties by {!Objref.compare}). *)
