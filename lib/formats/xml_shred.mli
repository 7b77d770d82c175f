(** Generic XML-to-relational shredding ("generic XML shredder", §4.1;
    cf. the XML wrapper generation of [NJM03]).

    Each element tag becomes a relation named after the tag, with columns:
    a surrogate [<tag>_id], a [parent_id] (surrogate id of the enclosing
    element; NULL for the root), one column per attribute name observed on
    that tag anywhere in the document, and a [content] column holding the
    element's own text. No constraints are declared — discovery must infer
    the structure, which is exactly the paper's scenario for generically
    imported XML sources. *)

open Aladin_relational

val shred_string : ?name:string -> string -> Catalog.t
(** Parse then shred. @raise Xml.Parse_error *)
