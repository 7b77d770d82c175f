(** Minimal RFC-4180-ish CSV reader/writer (relational dump files). *)

val render_line : string list -> string

val read_string : string -> string list list
(** Whole document -> records. Streams across lines with quote-state
    tracking: quoted fields may contain newlines, CR and LF inside quotes
    are preserved, and a CR before an unquoted record-ending LF is stripped
    (CRLF input). Blank lines are skipped. *)

val relation_of_records :
  name:string -> header:bool -> string list list -> Relation.t
(** First record is the header when [header]; otherwise attributes are named
    [c0..cn]. Values are type-inferred via {!Value.of_string}.
    @raise Invalid_argument on empty input with [header] or ragged rows. *)

val write_relation : Relation.t -> string
(** Header + rows as a CSV document. *)
