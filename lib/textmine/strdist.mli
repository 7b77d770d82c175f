(** String distances and similarities used by duplicate detection (§4.5)
    and cross-reference normalization (§4.4). *)

val levenshtein : string -> string -> int
(** Edit distance (insert/delete/substitute, unit costs). *)

val jaro_winkler : string -> string -> float
(** Jaro-Winkler similarity in [0,1] (prefix scale 0.1, max prefix 4). *)

val dice_bigrams : string -> string -> float
(** Dice coefficient over character bigrams; robust for accession-style
    strings. 1.0 when both have no bigrams. *)

val contains : needle:string -> string -> bool
(** Substring test. An empty needle is contained everywhere. *)
