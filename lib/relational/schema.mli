(** Relation schemas: named, typed attribute lists. *)

type attribute = { name : string; ty : Value.ty }

type t

val of_names : string list -> t
(** All attributes typed [Ttext]. *)

val arity : t -> int

val names : t -> string list

val index_of : t -> string -> int option
(** Case-insensitive lookup. *)

val index_of_exn : t -> string -> int
(** @raise Not_found when the attribute is absent. *)

val mem : t -> string -> bool
