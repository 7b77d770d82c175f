(** A catalog: the relational representation of one imported data source.

    Holds named relations (insertion-ordered) plus whatever integrity
    constraints the importer could declare. *)

type t

val create : name:string -> t

val name : t -> string

val add : t -> Relation.t -> unit
(** @raise Invalid_argument on duplicate relation name. *)

val create_relation : t -> name:string -> Schema.t -> Relation.t
(** Create, register, and return a fresh relation. *)

val find : t -> string -> Relation.t option
(** Case-insensitive by relation name. *)

val find_exn : t -> string -> Relation.t
(** @raise Not_found *)

val relations : t -> Relation.t list
(** In insertion order. *)

val relation_names : t -> string list

val declare : t -> Constraint_def.t -> unit
(** Record a constraint in the data dictionary. Referenced relations and
    attributes must exist. @raise Invalid_argument otherwise. *)

val constraints : t -> Constraint_def.t list

val declared_unique : t -> relation:string -> attribute:string -> bool
(** True when a UNIQUE or PRIMARY KEY constraint covers the attribute. *)

val declared_fks : t -> Constraint_def.t list
(** Only the foreign-key constraints. *)

val total_rows : t -> int
