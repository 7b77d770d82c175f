(** Tokenization and normalization for description-style text fields. *)

val words : string -> string list
(** Lowercased maximal runs of letters/digits; punctuation splits. *)

val words_raw : string -> string list
(** Like {!words} but preserving case — entity recognition needs casing. *)

val stopword : string -> bool
(** Small English + bio-boilerplate stopword list ("the", "protein", ...). *)

val terms : string -> string list
(** {!words} minus stopwords and one-character tokens. *)
