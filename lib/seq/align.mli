(** Pairwise local sequence alignment (Smith-Waterman) with linear gap
    penalties.

    {!local_score} is the verification kernel behind homology-based link
    discovery (the paper's BLAST role, §4.4); {!local} is its traceback
    reference. *)

type result = {
  score : int;
  query_aligned : string;  (** with '-' gaps *)
  subject_aligned : string;
  identity : float;  (** matching positions / alignment length; 0 if empty *)
  query_span : int * int;  (** [start, stop) in the query of the alignment *)
  subject_span : int * int;
}

val local : ?matrix:Subst_matrix.t -> string -> string -> result
(** Smith-Waterman with traceback; score is never negative. The default
    matrix is {!Subst_matrix.nucleotide}; a gap costs the matrix's
    {!Subst_matrix.gap_open}. The reference {!local_score} is tested
    against. *)

val local_score : ?matrix:Subst_matrix.t -> string -> string -> int
(** Score-only Smith-Waterman — the verification kernel of homology
    search, where the traceback is not needed. Equal to [(local ?matrix
    q s).score]. The shorter sequence runs along one DP row, updated
    in place, and the longer one's distinct bytes each get a profile row
    of scores against the shorter, built once per call, so a DP cell
    reads one int: O(min(n,m) x distinct bytes of the longer) space. The
    row and the profile live in a work array of the calling domain,
    reused by its later calls; a call allocates only a 256-entry byte
    map. Safe to call from any domain. *)

val self_score : Subst_matrix.t -> string -> int
(** The score of aligning a sequence with itself, ungapped: the sum of
    its diagonal matrix entries. *)
