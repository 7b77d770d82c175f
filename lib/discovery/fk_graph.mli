(** The directed graph formed by (declared + guessed) foreign keys.

    Primary-relation discovery needs in-degrees ("the table with highest
    in-degree", §4.2); secondary-relation discovery needs paths ignoring
    direction (§4.3). *)

type t

type step = { fk : Inclusion.fk; forward : bool }
(** One traversal step; [forward] follows src -> dst. *)

type path = step list

val build : relations:string list -> Inclusion.fk list -> t

val relations : t -> string list

val fks : t -> Inclusion.fk list

val in_degree : t -> string -> int
(** Number of FK edges pointing at the relation. 0 for unknown names. *)

val out_degree : t -> string -> int

val average_in_degree : t -> float

val paths_from : t -> src:string -> max_len:int -> (string * path list) list
(** For every other relation reachable from [src] (ignoring direction): all
    shortest undirected paths, plus any longer simple paths up to
    [max_len]; capped at 8 paths per destination. *)
