(** Candidate pruning for link discovery (§4.4).

    "Conceptually, to discover all such links, we need to look at each pair
    of attributes among two databases. However, substantial pruning can be
    applied based on data characteristics. [...] attributes with few
    distinct values should be excluded from being a link source, as are
    attributes with purely numeric values to avoid misinterpretation of
    surrogate keys." *)

open Aladin_relational

val is_link_source : prune:bool -> Col_stats.t -> bool
(** May this attribute hold cross-references? With [prune] it needs at
    least 3 distinct values, an average length of at least 3 (single
    letters are not references) and values that are not all numeric.
    Without it (the E6/E10 ablation) any attribute holding a value
    qualifies. *)

val is_text_field : Col_stats.t -> bool
(** Long, alphabetic, mostly non-unique content — a description field worth
    text mining (avg length >= 30). *)
