(** Union-find over strings (duplicate clustering). Path compression +
    union by rank. *)

type t

val create : unit -> t

val union : t -> string -> string -> unit

val clusters : t -> string list list
(** Only clusters with >= 2 members; members sorted, clusters sorted by
    first member. *)
