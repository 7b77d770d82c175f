(** Export the discovered object web for external tools: CSV for
    spreadsheets/joins, GraphViz DOT for visualization (sources become
    clusters, link kinds become edge styles). *)

open Aladin_links

val to_csv : Link.t list -> string
(** Header + one row per link:
    [src_source,src_accession,dst_source,dst_accession,kind,confidence,evidence]. *)

val to_dot : Link.t list -> string
(** A [graph] document: objects as nodes grouped into per-source
    subgraph clusters; duplicate links drawn bold, xrefs solid, implicit
    links dashed; edges capped at 500 by descending confidence. *)
