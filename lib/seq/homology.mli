(** Seed-and-extend homology search (the repo's BLAST stand-in).

    Candidates are seeded through a shared-k-mer filter and verified with
    Smith-Waterman; hits are reported with raw and normalized scores. *)

type hit = {
  query_id : string;
  subject_id : string;
  raw_score : int;
  normalized : float;
      (** raw score over the self-score of the shorter sequence (the
          query's on tied lengths); see {!Align.normalized_score} *)
  shared_kmers : int;
}

type t

val create : ?k:int -> ?min_hits:int -> Alphabet.kind -> t
(** [k] defaults to 11 for nucleotide kinds (BLASTN-like) and 4 for
    proteins; [min_hits] (shared k-mers needed to trigger verification)
    defaults to 2. *)

val add : t -> id:string -> string -> unit

val size : t -> int

val search : t -> query_id:string -> string -> min_normalized:float -> hit list
(** Hits above the normalized-score threshold, best first. Self-hits
    (subject = query_id) are excluded. Every Smith-Waterman alignment
    made counts toward the ambient trace counter [seq.alignments]. *)

val all_pairs :
  ?pool:Aladin_par.Pool.t ->
  ?keep:(string -> string -> bool) ->
  t ->
  min_normalized:float ->
  hit list
(** Search every indexed sequence against the rest; each unordered pair is
    aligned and reported once, with query_id < subject_id: the hits equal
    each {!search} filtered to [query_id < subject_id], in ascending
    query_id order. [keep query_id subject_id] (default: always) drops a
    candidate pair before it is aligned. With a [pool] the per-query
    searches fan out across domains (the index is only read); the result
    is identical to the sequential run. *)

(** {2 Probe index}

    A one-shot index over a fixed array of sequences, searched by
    read-only probes: what a pass builds over one side of a comparison
    and streams the other side through. Ids are array positions. *)

type probe_index

type probe_hit = {
  id : int;  (** the indexed sequence's position *)
  score : int;  (** Smith-Waterman score *)
  norm : float;
      (** normalized as in {!hit}, with the query chosen by {!probe} *)
}

val probe_index : Alphabet.kind -> string array -> probe_index
(** Index already-normalized sequences ({!Alphabet.normalize}) with
    their self-scores, with the k-mer length {!create} defaults to for
    the kind; sequences shorter than that are kept but have no k-mers. *)

val probe :
  probe_index ->
  probe_is_query:bool ->
  keep:(int -> bool) ->
  string ->
  min_normalized:float ->
  probe_hit list
(** Align a normalized probe against every indexed sequence that shares
    at least 2 distinct k-mers with it (the [min_hits] default of
    {!create}) and that [keep] admits;
    hits at or above the threshold, in ascending id order. The query of
    each alignment, whose self-score normalizes a tied-length pair, is
    the probe when [probe_is_query] holds and the indexed sequence
    otherwise. Only reads the index, so probes may run on any domain;
    alignments made count toward [seq.alignments]. *)
