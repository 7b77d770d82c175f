(** Field-level similarity for duplicate detection (§4.5).

    "Literature defines several domain-independent similarity measures
    usually based on edit distance" — the metric is picked by the shape of
    the values: identifiers use edit-based similarity, long text uses token
    overlap, sequences use a cheap identity proxy. *)

type metric = Exact | Edit | Token | Sequence_metric

val choose_metric : string -> string -> metric
(** From the values' shape (length, alphabet). *)

val similarity : string -> string -> float
(** In [0,1], by the chosen metric. Case-insensitive. Empty vs non-empty
    is 0; empty vs empty is 1. *)

val is_sequence_value : string -> bool
(** The cheap sequence tell used by {!choose_metric}: long, letters-only,
    low character diversity. *)

type prepared
(** A value normalized exactly once: trimmed, lowercased, sequence-flagged
    and tokenized, and for a sequence its byte bigrams as a sorted array
    of int codes. {!similarity} is [O(pairs x value length)] in
    normalization work when called naively inside a candidate fan-out; the
    prepared form moves all of that to a single pre-pass so the per-pair
    cost is just the metric itself — for sequences a sorted merge of the
    two bigram arrays, with no per-pair allocation. *)

val prepare : string -> prepared

val similarity_prepared : prepared -> prepared -> float
(** Exactly [similarity raw_a raw_b] for the values the arguments were
    {!prepare}d from, without re-normalizing either. *)

val similarity_at_least : prepared -> prepared -> float -> bool
(** [similarity_at_least a b t] is [similarity_prepared a b >= t]. When
    the pair takes the token metric, the two values' term counts bound
    its Jaccard by [min / max] first, and the term lists are merged only
    when that bound reaches [t]. *)

val name_affinity : string -> string -> float
(** Attribute-name compatibility used to decide which fields of two
    heterogeneously-modeled objects to compare (cf. [WN04]): token overlap
    (Jaccard over the {e deduplicated} token sets) of the names, in
    [0,1]. *)

val name_tokens : string -> string list
(** The sorted, deduplicated name tokens behind {!name_affinity}
    (split on ['_'] and ['.'], lowercased, ["id"] and empties dropped). *)

val name_affinity_tokens : string list -> string list -> float
(** {!name_affinity} over token lists already produced by {!name_tokens} —
    the per-pair form used with prepared representations. *)
