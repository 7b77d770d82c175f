(** The one codec for tab-separated record lines: [metadata.txt],
    [pairs.txt], [feedback.txt], the journal's header, the manifest's
    member paths and run reports.

    Records are tab-separated fields, one per line, with backslash
    escaping for tab, newline, carriage return and backslash. *)

val escape : string -> string
(** Backslash-escapes tab, newline, carriage return and backslash; a
    string holding none of them is returned as it is. *)

val unescape : string -> string
(** Inverse of {!escape}. A backslash before any other byte, or at the
    end, is kept as it stands; a string without a backslash is returned
    as it is. *)

val record : string list -> string
(** Fields -> one line (no trailing newline). *)

val add_record : Buffer.t -> string list -> unit
(** [add_record buf fs] appends [record fs] to [buf] without building it
    first. *)

val fields : string -> string list
(** Inverse of {!record}. *)

val fields_sub : string -> pos:int -> len:int -> string list
(** [fields_sub s ~pos ~len = fields (String.sub s pos len)], without
    copying the line. @raise Invalid_argument if the range is not inside
    [s]. *)

val float_to_string : float -> string
(** Round-trippable float rendering: [%h] hex floats for finite values,
    with nan/±infinity pinned to the fixed tokens ["nan"], ["inf"] and
    ["-inf"] regardless of platform or locale. *)

val float_of_string_exn : string -> float
(** Inverse of {!float_to_string} (also accepts anything
    [float_of_string] does). @raise Invalid_argument *)
