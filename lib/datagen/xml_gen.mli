(** Generate a protein-interaction data source as an XML document (the
    BIND/KEGG import path of §4.1: "Databases exported as XML files can be
    parsed using a generic XML shredder").

    The document shreds into: [interactions] (root), [interaction]
    (primary objects, [acc] attribute), [partner] (cross-references to
    protein sources via the [ref] attribute), [note] (text annotation).
    All structure must then be rediscovered by ALADIN — the scenario where
    "even generic parsers may be used". *)

val document :
  ?seed:int ->
  Universe.t ->
  assignment:Source_gen.assignment ->
  gold:Gold.t ->
  name:string ->
  partner_sources:string list ->
  string
(** Render the XML for source [name] (its interaction accessions must be in
    the assignment). Partner proteins are referenced by their accession in
    the first partner source that contains them; gold xrefs are recorded.
    Appends the source's {!Gold.source_gold} (primary = [interaction]). *)
