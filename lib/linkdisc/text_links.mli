(** Implicit links from text similarity and from entity mentions (§4.4).

    Every primary object gets a document assembled from the text fields of
    the rows it owns; TF-IDF cosine above a threshold links two objects of
    different sources. Additionally, gene/protein-style names recognized
    inside text fields are matched against the name-like unique
    attributes of other sources' primary relations ([Entity_mention]
    links). Two objects of one source are never linked. *)

type params = { min_cosine : float  (** default 0.5 *) }

val default_params : params

type result = {
  links : Link.t list;
  documents : int;
  mention_links : int;
}

val object_documents : Profile_list.t -> (Objref.t * string) list
(** The assembled per-object documents (exposed for search indexing and
    tests). Sequence-shaped fields are excluded. *)

val discover : ?params:params -> Profile_list.t -> result
(** Batch discovery over every source in the list, one corpus and one
    dictionary for all of them — the reference {!discover_source} is
    tested against. The cosine candidate join runs over the
    {!Aladin_text.Tfidf.prepare}d corpus and drops same-source pairs
    after scoring; entity-mention recognition runs per document.
    Sequential. *)

val discover_source :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  Profile_list.t ->
  source:string ->
  ((string * string) * Link.t list) list
(** The text links of every source pair holding the named source — the
    delta pipeline's text pass, called once per relink: per canonical
    source pair [(a, b)] holding the named source (one for every other
    source), the pair's links, deduplicated. A pair's links
    are exactly {!discover}'s over the two-source restriction of the
    profile list: its tf-idf corpus, document frequencies and name
    dictionary are pair-local, so they are a pure function of the two
    sources' contents, and a name both sources define resolves to the
    canonically later one.

    Every source is prepared once: its documents are built and split into
    words once (the tf-idf terms and the mention tokens), its term counts
    land in one relink-wide lexicographic term-id space, and its document
    frequencies and name dictionary are kept. A pair then sums the two
    sources' counts ([N = N_a + N_b], [df = df_a + df_b]) into its
    weights and runs {!Aladin_text.Tfidf}'s prefix-filtered join, which
    skips same-source candidates; weights
    are summed in ascending term order, so every cosine is bit-identical
    to {!discover}'s. The joins of all pairs fan out over the pool in one
    batch, and nothing prepared outlives the call. The ambient trace
    counts [text.documents] (documents built) and [text.links]; the
    result and the counters do not depend on the pool size.

    Source names must not contain [':']: a document is keyed by
    {!Objref.to_string}, and such a name can make two sources' keys
    collide. *)
