(** Human-readable data-profiling report for one analyzed source — the
    "statistical metadata" of the repository surfaced for inspection: per
    attribute the §4.2 statistics, key candidacy, and the content class
    link discovery will assign to it. *)

val render : Source_profile.t -> string
(** The full report: per relation, one line per attribute with rows,
    distinct count, null fraction, length range and content class
    ([surrogate-key]: unique integers; [accession]: passed the
    accession-number rules; [foreign-key]: source of an inferred or
    declared FK; [sequence]: a fixed biological alphabet; [text]:
    description-style prose; [categorical]: few distinct values;
    [other]); then the discovered primary/secondary summary. *)
