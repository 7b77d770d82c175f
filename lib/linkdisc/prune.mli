(** Candidate pruning for link discovery (§4.4).

    "Conceptually, to discover all such links, we need to look at each pair
    of attributes among two databases. However, substantial pruning can be
    applied based on data characteristics. [...] attributes with few
    distinct values should be excluded from being a link source, as are
    attributes with purely numeric values to avoid misinterpretation of
    surrogate keys." *)

open Aladin_relational

type params = {
  min_distinct : int;  (** default 3 *)
  exclude_numeric : bool;  (** default true *)
  min_avg_len : float;  (** default 3.0 — single letters are not references *)
  enabled : bool;  (** false = no pruning, for the E6/E10 ablation *)
}

val default_params : params

val no_pruning : params

val is_link_source : params -> Col_stats.t -> bool
(** May this attribute hold cross-references? *)

val is_text_field : Col_stats.t -> bool
(** Long, alphabetic, mostly non-unique content — a description field worth
    text mining (avg length >= 30). *)
