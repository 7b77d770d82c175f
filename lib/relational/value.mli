(** Atomic relational values.

    Life-science sources are text-centric, so parsing is conservative: a
    value only becomes numeric when the whole token is a number. *)

type ty = Tint | Tfloat | Ttext

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string

val compare : t -> t -> int
(** Total order: [Null] first, then ints and floats numerically (mixed
    comparisons are by numeric value), then text lexicographically. *)

val equal : t -> t -> bool

val hash : t -> int

val is_null : t -> bool

val to_string : t -> string
(** [Null] renders as the empty string. *)

val of_string : string -> t
(** Infer the tightest type: empty string and ["\\N"] become [Null], integer
    literals become [Int], float literals become [Float], everything else
    [Text]. Leading/trailing blanks are preserved in [Text]. *)

val text : string -> t
(** [Text s], without inference — for values that must stay strings even when
    they look numeric (e.g. accession numbers like ["1234"]). *)

val as_text : t -> string option

val is_numeric : t -> bool
(** True for [Int] and [Float]. *)

val contains_alpha : t -> bool
(** True when the rendered value contains at least one non-digit,
    non-punctuation character — the paper's accession-number signal. *)

val length : t -> int
(** Length of the rendered value; 0 for [Null]. *)
