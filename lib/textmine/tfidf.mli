(** TF-IDF document vectors and cosine similarity.

    Backs implicit text-similarity links (§4.4) and search ranking (§4.6).

    The {!prepared} corpus serves the all-pairs similarity join: built
    once after all {!corpus_add} calls, or directly from int term counts
    ({!prepare_counts}), it holds per-document sorted term-id arrays with
    precomputed tf-idf weights, cached norms and a postings table, so
    {!similar_pairs_range} generates candidates through shared postings
    (only pairs sharing >= 1 non-ubiquitous term are ever scored) and
    scores each canonical pair exactly once with a fused sorted-merge dot
    product — no hashtable allocation per pair. {!vector_of_doc} and
    {!cosine} score one pair naively: the reference the join is tested
    against. *)

type corpus

type vector

val corpus_create : unit -> corpus

val corpus_add : corpus -> doc_id:string -> string -> unit
(** Add (or replace) a document. Terms come from {!Tokenize.terms}.
    Invalidates any {!prepared} representation cached on the corpus. *)

val vector_of_doc : corpus -> string -> vector option
(** TF-IDF vector of an indexed document. IDF = ln(N / df). *)

val cosine : vector -> vector -> float
(** In [0,1]; 0 when either vector is zero. *)

(** {2 Prepared corpus — the sparse all-pairs similarity join} *)

type prepared

type counts = { terms : int array; tfs : int array }
(** One document's term counts: its distinct term ids, ascending, with
    their (positive) counts. *)

val prepare_counts :
  groups:int array -> ids:string array -> df:int array -> counts array -> prepared
(** The prepared form of the documents [docs] ([N = Array.length docs]),
    document [i] being [docs.(i)] with id [ids.(i)]. [df.(t)] is term
    [t]'s document frequency over [docs]. This is what {!prepare} builds
    from a string corpus, in ascending doc-id order with lexicographic
    term ids. Weights, norms and candidate-generation order are
    bit-identical to that corpus's whenever term ids ascend in
    lexicographic term order, so one id space may serve several corpora
    (the delta text pass derives each source pair's corpus from counts
    prepared once per source), and every cosine then equals the string
    corpus's.

    [groups.(i)] places document [i] in a group: two documents of one
    group are never a candidate pair, so they are neither collected nor
    scored. The join is fastest when groups are contiguous index runs,
    but any assignment is correct. The result is immutable and safe to share across pool
    domains. *)

val prepare : corpus -> prepared
(** The prepared representation of the corpus as currently indexed,
    through {!prepare_counts}, every document its own group. Cached on
    the corpus; invalidated by {!corpus_add}. *)

val prepared_docs : prepared -> int
(** Number of documents. A {!prepare}d corpus indexes them
    [0 .. prepared_docs - 1] in ascending doc-id order. *)

val similar_pairs_range :
  prepared ->
  lo:int ->
  hi:int ->
  min_sim:float ->
  (string * string * float) list
(** The document pairs of different groups with cosine >= [min_sim]
    whose smaller document index [i] lies in [\[lo, hi)], each canonical
    pair [(id_i, id_j)] (with [i < j]) reported exactly once, in ascending
    [(i, j)] order. Candidates are generated through postings: only pairs
    sharing at least one positive-weight term are scored. Every such
    term has df < N, so the join misses nothing for any [min_sim > 0],
    and a term in all N documents has idf 0 and is skipped at no cost.
    A lossless prefix filter
    skips postings walks for a query document's lightest terms: once the
    remaining suffix of its weight vector has norm fraction below
    [min_sim], no pair sharing only those terms can pass the threshold
    (Cauchy-Schwarz) — which prunes exactly the ubiquitous low-idf terms
    with the longest postings. The shardable form: concatenating the
    results of consecutive ranges covering [\[0, prepared_docs)] gives
    the whole join, whatever the range boundaries. Pure and read-only on [prepared],
    so ranges may run on different pool domains. *)

val similar_index_pairs_range :
  prepared ->
  lo:int ->
  hi:int ->
  min_sim:float ->
  (int * int * float) list
(** {!similar_pairs_range} with document indexes instead of ids. *)
