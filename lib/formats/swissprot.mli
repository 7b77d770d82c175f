(** Swiss-Prot/EMBL-style flat-file parser.

    Produces a BioSQL-like relational representation (paper Figure 3):
    [bioentry] (primary objects), [taxon] (dictionary), [biosequence] (1:1),
    [dbxref] (cross-references), [term] + [bioentry_term] (keyword
    dictionary + bridge), [reference]. Surrogate keys are plain integers;
    accession numbers stay text.

    Recognized line codes: [ID] (entry name), [AC] (accession), [DE]
    (description, continuable), [OS] (organism), [KW] (keywords,
    ';'-separated), [DR] (cross-reference ["DB; ACC."]), [RX] (reference
    ["MEDLINE; 12345."] with optional title after a second ';'), [SQ]
    (header) followed by sequence continuation lines with code [..] or
    plain sequence lines. Records end with ["//"]. *)

open Aladin_relational

val parse : ?name:string -> string -> Catalog.t
(** Parse a whole document. The catalog declares no integrity
    constraints: ALADIN infers them all. *)
