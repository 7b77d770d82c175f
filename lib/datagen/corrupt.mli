(** Controlled value corruption — duplicate-detection stress (E8) and the
    "differences due to different cleansing procedures" of §5. *)

val value : Rng.t -> rate:float -> string -> string
(** Apply a typo (swap, replace, delete or duplicate one character;
    strings under 2 bytes are left alone) repeatedly: each pass happens
    with probability [rate] (max 3 passes). *)

val flip_bit_at : string -> byte:int -> bit:int -> string
(** Flip bit [bit land 7] of the byte at offset [byte]; out-of-range
    offsets return the string unchanged. Deterministic — the workhorse
    of the store fault-injection tests. *)

val truncate_at : string -> int -> string
(** Keep the first [n] bytes (a torn write); [n] past the end is the
    identity. *)
