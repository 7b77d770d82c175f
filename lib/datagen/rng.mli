(** Deterministic PRNG (splitmix64) so every generated corpus, test and
    benchmark is reproducible from a seed. *)

type t

val create : int -> t
(** Seeded. *)

val int : t -> int -> int
(** [int t n] in [0, n). @raise Invalid_argument when [n <= 0]. *)

val float : t -> float -> float
(** In [0, bound). *)

val chance : t -> float -> bool
(** True with probability [p]. *)

val range : t -> int -> int -> int
(** [range t lo hi] in [lo, hi] inclusive. *)

val choice : t -> 'a list -> 'a
(** @raise Invalid_argument on []. *)

val choice_arr : t -> 'a array -> 'a

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs]: k distinct elements (all of [xs] when k >= length). *)

val shuffle : t -> 'a list -> 'a list

val digits : t -> int -> string
(** Fixed number of random decimal digits. *)

val letters : t -> int -> string
(** Uppercase letters. *)

val pattern : t -> string -> string
(** Expand '#' to a digit, '@' to an uppercase letter; everything else is
    copied verbatim — accession-number shapes like ["P#####"]. *)
