(** Inverted index with TF-IDF ranking — the warehouse's full-text search
    engine (§4.6: "a specialized search engine can crawl the links and index
    biological objects and their data and textual annotation"). *)

type t

type posting = { doc_id : string; field : string; tf : int }

val build : ((doc_id:string -> field:string -> string -> unit) -> unit) -> t
(** [build fill] indexes what [fill] passes to the function it is given:
    one call per field of a document; calls for one document accumulate,
    in any order. Each term's distinct documents are counted once, when
    [fill] returns, and nothing in the index changes after that, so pool
    domains may search it at once. *)

val doc_count : t -> int

val postings : t -> string -> posting list
(** Raw postings for a (lowercased) term. *)

val idf : t -> string -> float
(** [log (1 + N / df)] over DISTINCT documents containing the term (a
    document indexed under several fields counts once; [df] is counted
    by {!build}, not per query); 0.0 for a term absent from the index. *)

type query_result = { doc_id : string; score : float; matched : string list }

val search : t -> ?field:string -> ?limit:int -> string -> query_result list
(** Rank documents by summed TF-IDF of the query terms; [field] restricts to
    a vertical partition (the paper's "focused search"). [limit] defaults to
    20. Multi-term queries are disjunctive but reward documents matching
    more terms. *)
