(** Implicit links from sequence homology (§4.4, second kind of link).

    Sequence fields are detected by their fixed alphabet; values are
    indexed per alphabet and similar pairs become [Seq_similarity] links
    between the owning primary objects. *)

type params = {
  min_normalized : float;  (** alignment score threshold (default 0.5) *)
  min_seq_len : int;  (** ignore shorter values (default 20) *)
  cross_source_only : bool;  (** default true *)
  sample_for_detection : int;  (** values sampled to classify a column (default 50) *)
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

val discover :
  ?params:params -> ?pool:Aladin_par.Pool.t -> Profile_list.t -> result
(** Batch discovery over every source in the list: all sequences of a
    kind in one index, each unordered pair aligned once, from its smaller
    id. With [cross_source_only] a same-source pair is dropped before it
    is aligned, so [pairs_verified] counts cross-source hits only. With a
    [pool] the all-pairs search fans out across domains; the result is
    identical to the sequential run. *)

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
    normalizes the pair. With [cross_source_only] off, each of its
    sequences also probes its own index for the ones before it, as the
    query, which adds the within-source links. Sequence fields are
    detected once per source. The ambient trace counts
    [seq.sequences_indexed] (the named source's sequences),
    [seq.alignments], [seq.pairs_verified] and [seq.links]; the result
    and the counters do not depend on the pool size. *)

val discover_between :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  Profile_list.t ->
  a:string ->
  b:string ->
  result
(** Batch {!discover} restricted to the canonically ordered source pair
    [(a, b)] — the delta pipeline's seq pass when [incremental_seq] is
    off. Alignment scores depend only on the two sequences, so the
    union over pairs equals the global all-pairs run. Symmetric in
    [a]/[b]. *)
