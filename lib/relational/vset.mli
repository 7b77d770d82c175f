(** Hash sets of {!Value.t}, used everywhere value-overlap must be computed
    (inclusion dependencies, link discovery). *)

type t

val cardinal : t -> int

val of_list : Value.t list -> t

val of_column : Value.t array -> t
(** Nulls are skipped. *)

val subset : t -> t -> bool
(** [subset a b]: every member of [a] is in [b]. *)

val equal : t -> t -> bool

val inter_count : t -> t -> int
(** Size of the intersection. *)
