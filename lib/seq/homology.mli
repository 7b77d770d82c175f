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

val all_pairs : ?pool:Aladin_par.Pool.t -> t -> min_normalized:float -> hit list
(** Search every indexed sequence against the rest; each unordered pair is
    aligned and reported once, with query_id < subject_id: the hits equal
    each {!search} filtered to [query_id < subject_id], in ascending
    query_id order. With a [pool] the per-query searches fan out across
    domains (the index is only read); the result is identical to the
    sequential run. *)
