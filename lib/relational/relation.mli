(** In-memory relations (tables).

    A relation owns its schema and a growable set of rows. Rows are value
    arrays positionally aligned with the schema. *)

type t

val create : name:string -> Schema.t -> t

val name : t -> string

val schema : t -> Schema.t

val cardinality : t -> int
(** Number of rows. *)

val insert : t -> Value.t array -> unit
(** @raise Invalid_argument on arity mismatch. *)

val insert_strings : t -> string list -> unit
(** Insert after [Value.of_string] inference on each field. *)

val row : t -> int -> Value.t array
(** @raise Invalid_argument out of bounds. *)

val iter_rows : (Value.t array -> unit) -> t -> unit

val iteri_rows : (int -> Value.t array -> unit) -> t -> unit

val rows : t -> Value.t array list

val column : t -> string -> Value.t array
(** All values of the named attribute, in row order.
    @raise Not_found on unknown attribute. *)

val find_row : t -> string -> Value.t -> Value.t array option
(** First row whose named attribute equals the value. *)
