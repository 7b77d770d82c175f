(** Implicit links from sequence homology (§4.4, second kind of link).

    Sequence fields are detected by their fixed alphabet, from the
    first 50 non-null values of a column; values are indexed per
    alphabet and similar pairs of different sources become
    [Seq_similarity] links between the owning primary objects. Two
    objects of one source are never linked. *)

type params = {
  min_normalized : float;  (** alignment score threshold (default 0.5) *)
  min_seq_len : int;  (** ignore shorter values (default 20) *)
}

val default_params : params

type seq_field = {
  source : string;
  relation : string;
  attribute : string;
  kind : Aladin_seq.Alphabet.kind;
}

val sequence_fields : params -> Profile_list.t -> seq_field list
(** All attributes detected as sequence fields. *)

type result = {
  links : Link.t list;
  fields : seq_field list;
  sequences_indexed : int;
  pairs_verified : int;
}

val discover : ?params:params -> Profile_list.t -> result
(** Batch discovery over every source in the list — the reference the
    delta pipeline's pass ({!discover_source}) is tested against, and
    the E7 evaluator; the warehouse never calls it. Per alphabet kind,
    every sequence goes into one {!Aladin_seq.Homology.probe_index},
    ordered by its [source\x00relation\x00row] string, and each probes
    it as the query for the other sources' ones after it: each unordered
    cross-source pair is aligned once, the earlier side being the query,
    and a same-source pair is never aligned. Sequential. *)

val discover_source :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  Profile_list.t ->
  source:string ->
  Link.t list
(** The links between the named source's sequences and every other
    source's in the list — the delta pipeline's seq pass, which adds a
    source at the cost of that source's sequences (§6.2). Its sequences
    are indexed, one index per alphabet kind, and every other source's
    sequences of that kind probe the index read-only, fanned out over
    the [pool]; nothing is kept afterwards. The named source's sequence
    is each alignment's query, so on tied lengths its self-score
    normalizes the pair. A probe whose normalized sequence an earlier
    probe of the same kind from another source carries is not run: it
    takes that probe's hits, which are equal, and every owning object of
    either is linked. Sequence fields are detected once per source. The ambient trace counts
    [seq.sequences_indexed] (the named source's sequences),
    [seq.alignments] (Smith-Waterman calls made), [seq.probes_shared]
    (probes answered by an earlier identical one), [seq.pairs_verified]
    (hits, a shared probe's counted again) and [seq.links]; the result
    and the counters do not depend on the pool size. *)
