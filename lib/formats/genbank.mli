(** GenBank-style flat-file parser (§4.1 names GenBank among the sources
    with readily available parsers).

    Records:
    {v
    LOCUS       KIN1HS       1020 bp    DNA
    DEFINITION  Homo sapiens alpha kinase mRNA, complete cds.
    ACCESSION   AB123456
    SOURCE      Homo sapiens
    FEATURES             Location/Qualifiers
         CDS             1..1020
                         /gene="KIN1"
                         /db_xref="UniProt:P12345"
    ORIGIN
            1 atggcgatcg atcgatcgta
    //
    v}

    Relational mapping: [entry(entry_id, accession, locus_name, definition,
    organism)], [feature(feature_id, entry_id, feature_key, location)],
    [qualifier(qualifier_id, feature_id, qual_key, qual_value)],
    [genbank_seq(entry_id, sequence)]. Qualifiers hang two FK hops below
    the primary relation, so [db_xref] values exercise multi-hop owner
    attribution in link discovery. *)

open Aladin_relational

type feature = { key : string; location : string; qualifiers : (string * string) list }

type record = {
  locus : string;
  definition : string;
  accession : string;
  organism : string;
  features : feature list;
  origin : string;  (** sequence, lowercase stripped of digits/blanks *)
}

val parse : ?name:string -> string -> Catalog.t

val catalog : name:string -> seq_relation:string -> record list -> Catalog.t
(** The relational mapping above of parsed records, with the sequence
    relation named [seq_relation]: {!parse} names it [genbank_seq], and
    {!Embl.parse} builds its catalog here too. *)

val parse_qualifier : string -> (string * string) option
(** A feature-table qualifier line: [/key="value"], [/key=value] or a
    bare [/key] (value [""]); [None] for any other line. *)

val letters : string -> string
(** The ASCII letters of a sequence line, in order. *)

val render : record list -> string
(** The GenBank text of the records, which {!parse} reads back
    (sequence wrapped GenBank-style). *)
