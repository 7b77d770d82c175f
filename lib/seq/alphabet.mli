(** Biological sequence alphabets and sequence-field detection.

    §4.4 of the paper: "Finding sequence fields is simple, as those contain
    only strings over a fixed alphabet (A, C, T, G for genes)." *)

type kind = Dna | Rna | Protein

val dna : string
(** "ACGT" *)

val protein : string
(** The 20 standard amino-acid one-letter codes. *)

val normalize : string -> string
(** Uppercase and strip whitespace/newlines — flat files wrap sequences. *)

val is_over : alphabet:string -> string -> bool
(** After normalization, every character is in [alphabet]; empty is false. *)

val classify : ?min_len:int -> string -> kind option
(** Detect the alphabet of a value after normalization, in one pass that
    does not build the normalized string. DNA wins over RNA and protein
    for ACGT-only strings, RNA over protein; [min_len] (default 10)
    guards against short words like "CAT" being taken for sequences. *)

val classify_column : ?min_len:int -> string list -> kind option
(** A column is a sequence field when at least 90% of its non-empty
    values (after normalization) classify to the same kind: the most
    frequent one, DNA > RNA > Protein on ties. Each value is classified
    once. *)
