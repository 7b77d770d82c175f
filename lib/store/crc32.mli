(** CRC-32 (IEEE 802.3, reflected, polynomial [0xEDB88320]) over strings.

    Every persisted artifact — snapshot members in the [MANIFEST],
    individual repository record lines, the manifest itself — carries one
    of these so that torn writes and bit flips are detected on load
    rather than silently parsed. Values are kept in native [int]s (the
    low 32 bits); [string "123456789" = 0xCBF43926].

    The tables are built when the module initialises, and a step folds
    eight bytes (slicing-by-8), so checksumming is safe from any domain
    and calls no closure per byte. *)

val string : string -> int
(** Checksum of a whole string ([update 0]). *)

val update : int -> string -> int
(** Extend a running checksum; [update (update 0 a) b = string (a ^ b)]. *)

val sub : string -> pos:int -> len:int -> int
(** [sub s ~pos ~len = string (String.sub s pos len)], without the copy.
    @raise Invalid_argument if the range is not inside [s]. *)

val to_hex : int -> string
(** Fixed-width lowercase hex, 8 characters. *)

val matches_hex : int -> string -> pos:int -> bool
(** [matches_hex crc s ~pos] is [of_hex (String.sub s pos 8) = Some crc]
    for a checksum [crc], without the copy; [false] when fewer than 8
    bytes follow [pos]. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] on anything that is not exactly 8
    {e lowercase} hex digits — a stored checksum is a fixed-width field,
    not an integer literal. *)
