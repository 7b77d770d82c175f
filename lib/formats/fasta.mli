(** FASTA parser.

    [>ACCESSION description] header lines followed by wrapped sequence
    lines. Produces a single-relation catalog
    [entry(entry_id, accession, description, sequence)]. *)

open Aladin_relational

type record = { accession : string; description : string; sequence : string }

val parse : ?name:string -> string -> Catalog.t

val render : record list -> string
(** The FASTA text of the records, which {!parse} reads back: sequences
    wrapped at 60 columns. *)
