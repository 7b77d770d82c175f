(** Substitution scoring.

    Nucleotides use a simple match/mismatch model (BLASTN defaults);
    proteins use BLOSUM62. *)

type t

val nucleotide : t
(** +5 match / -4 mismatch (BLASTN-like). *)

val blosum62 : t
(** The standard BLOSUM62 matrix over the 20 amino acids. Unknown letters
    score as the worst mismatch (-4). *)

val score : t -> char -> char -> int

val table : t -> string
(** Flat 256x256 score table, one byte per score: the score of [a]
    against [b] is [Char.code tbl.[code a * 256 + code b] - table_bias].
    Built when the module initialises — the allocation-free fast path
    for alignment inner loops, safe to read from any domain. *)

val table_bias : int
(** What {!table} adds to every score to store it in a byte. *)

val for_kind : Alphabet.kind -> t

val gap_open : t -> int
(** Suggested gap-open penalty (negative). *)
