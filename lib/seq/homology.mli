(** Seed-and-extend homology search (the repo's BLAST stand-in).

    A one-shot index over a fixed array of sequences, searched by
    read-only probes: what a pass builds over one side of a comparison
    and streams the other side through. Candidates are seeded through a
    shared-k-mer filter and verified with Smith-Waterman; hits carry raw
    and normalized scores. Ids are array positions. *)

type probe_index

type probe_hit = {
  id : int;  (** the indexed sequence's position *)
  score : int;  (** Smith-Waterman score *)
  norm : float;
      (** raw score over the self-score of the shorter sequence (the
          query's on tied lengths, the query being chosen by {!probe}) *)
}

val probe_index : Alphabet.kind -> string array -> probe_index
(** Index already-normalized sequences ({!Alphabet.normalize}) with
    their self-scores. The k-mer length is 11 for nucleotide kinds
    (BLASTN-like) and 4 for proteins; sequences shorter than that are
    kept but have no k-mers. *)

val probe :
  probe_index ->
  probe_is_query:bool ->
  keep:(int -> bool) ->
  string ->
  min_normalized:float ->
  probe_hit list
(** Align a normalized probe against every indexed sequence that shares
    at least 2 distinct k-mers with it and that [keep] admits;
    hits at or above the threshold, in ascending id order. The query of
    each alignment, whose self-score normalizes a tied-length pair, is
    the probe when [probe_is_query] holds and the indexed sequence
    otherwise. Only reads the index, so probes may run on any domain;
    alignments made count toward [seq.alignments]. *)
