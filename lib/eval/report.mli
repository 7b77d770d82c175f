(** Plain-text table rendering for experiment output (bench/main.exe). *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument on column-count mismatch. *)

val print : t -> unit

val cell_f : float -> string
(** "%.3f" *)
