(** The one codec for tab-separated record lines: [metadata.txt],
    [pairs.txt], [feedback.txt], the journal's header, the manifest's
    member paths and run reports.

    Records are tab-separated fields, one per line, with backslash
    escaping for tab, newline, carriage return and backslash. *)

val escape : string -> string

val unescape : string -> string

val record : string list -> string
(** Fields -> one line (no trailing newline). *)

val fields : string -> string list
(** Inverse of {!record}. *)

val float_to_string : float -> string
(** Round-trippable float rendering: [%h] hex floats for finite values,
    with nan/±infinity pinned to the fixed tokens ["nan"], ["inf"] and
    ["-inf"] regardless of platform or locale. *)

val float_of_string_exn : string -> float
(** Inverse of {!float_to_string} (also accepts anything
    [float_of_string] does). @raise Invalid_argument *)

val int_of_string_exn : string -> int
(** @raise Invalid_argument *)
