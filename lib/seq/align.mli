(** Pairwise sequence alignment: Needleman-Wunsch (global) and
    Smith-Waterman (local), with linear gap penalties.

    These are the verification kernels behind homology-based link discovery
    (the paper's BLAST role, §4.4). *)

type result = {
  score : int;
  query_aligned : string;  (** with '-' gaps *)
  subject_aligned : string;
  identity : float;  (** matching positions / alignment length; 0 if empty *)
  query_span : int * int;  (** [start, stop) in the query of the alignment *)
  subject_span : int * int;
}

val global : ?matrix:Subst_matrix.t -> ?gap:int -> string -> string -> result
(** Needleman-Wunsch. [gap] defaults to the matrix's gap-open penalty. *)

val local : ?matrix:Subst_matrix.t -> ?gap:int -> string -> string -> result
(** Smith-Waterman; score is never negative. The default matrix is
    {!Subst_matrix.nucleotide}. *)

val local_score : ?matrix:Subst_matrix.t -> ?gap:int -> string -> string -> int
(** Score-only Smith-Waterman in O(min(n,m)) space — used in the inner loop
    of homology search where the traceback is not needed. *)

val self_score : Subst_matrix.t -> string -> int
(** The score of aligning a sequence with itself, ungapped: the sum of
    its diagonal matrix entries. *)

val normalized_score : result -> query:string -> subject:string -> float
(** Score divided by the self-alignment score of the shorter input — 1.0 for
    identical sequences, approaching 0 for unrelated ones. *)
