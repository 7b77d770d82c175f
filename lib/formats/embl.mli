(** EMBL-style flat-file parser (§5: BioSQL stores "imported data from
    Swiss-Prot and EMBL").

    EMBL shares the two-letter line-code family with Swiss-Prot but carries
    a feature table:
    {v
    ID   HSKIN1; SV 1; linear; mRNA; STD; HUM; 60 BP.
    AC   X51234;
    DE   Human alpha kinase mRNA
    OS   Homo sapiens
    FT   source          1..60
    FT                   /organism="Homo sapiens"
    FT   CDS             1..60
    FT                   /gene="KIN1"
    FT                   /db_xref="UniProt:P12345"
    SQ   Sequence 60 BP;
         atggcgatcg atcgatcgta ...
    //
    v}

    Relational mapping mirrors the GenBank shape (entry / feature /
    qualifier / embl_seq), so discovery treats both uniformly. *)

open Aladin_relational

val parse : ?name:string -> string -> Catalog.t

val render : Genbank.record list -> string
(** The EMBL text of the records, which {!parse} reads back. *)
