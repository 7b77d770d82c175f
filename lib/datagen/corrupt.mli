(** Controlled value corruption — duplicate-detection stress (E8) and the
    "differences due to different cleansing procedures" of §5. *)

val typo : Rng.t -> string -> string
(** One random edit: swap, replace, delete or insert a character.
    Strings shorter than 2 are returned unchanged. *)

val value : Rng.t -> rate:float -> string -> string
(** Apply {!typo} repeatedly: each pass happens with probability [rate]
    (max 3 passes). *)

val maybe_drop : Rng.t -> rate:float -> string -> string
(** Return "" (a null) with probability [rate]. *)

val flip_bit_at : string -> byte:int -> bit:int -> string
(** Flip bit [bit land 7] of the byte at offset [byte]; out-of-range
    offsets return the string unchanged. Deterministic — the workhorse
    of the store fault-injection tests. *)

val truncate_at : string -> int -> string
(** Keep the first [n] bytes (a torn write); [n] past the end is the
    identity. *)
