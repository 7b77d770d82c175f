(** Minimal XML parser for data-exchange documents.

    Supports elements, attributes (single- or double-quoted), text content,
    self-closing tags, comments, processing instructions and the standard
    five entities. No DTDs, namespaces are kept verbatim in names. *)

type node =
  | Element of { tag : string; attrs : (string * string) list; children : node list }
  | Text of string

exception Parse_error of string

val parse : string -> node
(** Parse a document to its root element. @raise Parse_error on malformed
    input or when no root element exists. *)

val render : node -> string
(** Serialize (attributes and text escaped). *)

val escape : string -> string
