(** Growable arrays.

    A small dynamic-array substrate used throughout the relational engine to
    accumulate rows without repeated list reversals. Amortized O(1) push. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty vector. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument out of bounds. *)

val push : 'a t -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val find_opt : ('a -> bool) -> 'a t -> 'a option

val to_list : 'a t -> 'a list
