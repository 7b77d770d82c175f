(** Object-level similarity over heterogeneously modeled objects (§4.5).

    "It is not a priori clear which attribute values of one object to
    compare with which attribute value of the other object." Each primary
    object is flattened into a bag of (qualified attribute, value) fields
    from the rows it owns; similarity greedily matches each field of the
    smaller object to its best counterpart (value similarity, weighted by
    attribute-name affinity) and averages — the nested-object measure of
    [WN04] adapted to the relational shredding. *)

open Aladin_links

type repr = {
  obj : Objref.t;
  fields : (string * string) list;  (** (relation.attribute, value) *)
}

val build_reprs :
  ?exclude_attributes:(string * string * string) list ->
  Profile_list.t ->
  repr list
(** One representation per primary object. Surrogate-key attributes
    (numeric, FK-ish) are excluded, and an object keeps at most 40
    fields. Sorted by object.

    [exclude_attributes] lists (source, relation, attribute) triples to
    leave out of the bags — step 5 runs after link discovery, so the
    attributes already identified as cross-references (which hold OTHER
    objects' accessions) must not count as similarity evidence between an
    object and its link target. *)

type context
(** Corpus-level value statistics: how many objects carry each value.
    Matching a value shared by half the corpus ("Homo sapiens") is weak
    evidence; matching a rare one (a gene symbol) is strong. *)

val context_of : repr list -> context

type prepared
(** A representation prepared for the candidate fan-out: per-field
    lowercased/trimmed values, token lists, sequence flags and bigram
    profiles, attribute-name tokens and df keys, all computed exactly
    once. Scoring unprepared representations would re-derive every one of
    those per candidate pair — the minor-heap churn that turned the parallel duplicate step
    anti-scale — so the pipeline prepares each object once and compares
    prepared forms. *)

val prepare : ?name_tokens:(string -> string list) -> repr -> prepared
(** Prepare one object. Independent of any {!context}: each field keeps
    its lowercased value as its df key, so one preparation serves every
    source pair the object is compared in; {!bind} resolves the dfs
    under a pair's context. [name_tokens] (default
    {!Field_sim.name_tokens}) tokenizes attribute names; a caller
    preparing many objects can pass a lookup that returns one shared list
    per attribute. *)

val repr_of_prepared : prepared -> repr

val context_of_prepared : prepared list -> context
(** {!context_of} over the prepared objects' representations, counted
    from their stored df keys. *)

type bound
(** A prepared object with the df of each of its fields resolved under
    one context. *)

val bind : ?context:context -> prepared -> bound
(** Look up each field's df once, before the candidate fan-out, so
    {!similarity_prepared} never touches the df table per pair. *)

val similarity_prepared : bound -> bound -> float
(** The object similarity: each field of the smaller object is matched
    to its most similar field of the other, and the pair scores 0.8 of
    its value similarity plus 0.2 of its attribute-name affinity; the
    scores are averaged, weighted by the rarity of agreeing values.
    Under a context, a pair of objects without an identity agreement
    (see {!may_agree}) scores half that. Both arguments must be bound
    under the same context. *)

val may_agree : bound -> bound -> bool
(** Whether the two objects could agree on an identifying value: some
    field pair [(fa, fb)] has an anchor-shaped [fa] (identifier-shaped
    or long text, not a sequence), a [fb] that is not a sequence, a
    smaller df at most the context's identity cap, attribute names
    sharing a token, and a value similarity of at least 0.85, the
    smaller object's field compared first. Always true without a
    context. Every field pair on which {!similarity_prepared} records an
    identity agreement passes these tests, so when [may_agree a b] is
    false, [similarity_prepared a b] is half a weighted mean of values
    at most 1: at most 0.5. Detection uses it
    to leave such pairs unscored when its threshold is above 0.5. *)

val explain : ?context:context -> repr -> repr -> string
(** Human-readable derivation of {!similarity_prepared} over the two
    objects: one line per matched field
    pair with value similarity, name affinity, weight and anchor status —
    the "why were these flagged as duplicates" provenance. *)
