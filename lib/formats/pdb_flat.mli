(** Simplified PDB-style structure file parser.

    Per-structure records:
    {v
    HEADER    <classification>              <PDB-ID>
    TITLE     <title, continuable>
    COMPND    <compound>
    EXPDTA    <method>
    DBREF     <PDB-ID> <chain> <db> <accession>
    SEQRES    <chain> <wrapped sequence>
    END
    v}

    Produces: [structure(structure_id, pdb_acc, classification, title,
    compound, method)], [chain(chain_id, structure_id, chain_name,
    sequence)], [struct_ref(ref_id, structure_id, db, accession)]. *)

open Aladin_relational

val parse : ?name:string -> string -> Catalog.t
