(** Vocabularies and name generators for synthetic life-science content. *)

val species : string array
(** Binomial species names. *)

val keywords : string array
(** Controlled-vocabulary keywords (GO-flavoured). *)

val diseases : string array

val gene_symbol : Rng.t -> string
(** "BRCA2"-style symbols: 3-5 uppercase letters + digit(s). *)

val protein_name : Rng.t -> string
(** e.g. "Putative serine kinase 3". *)

val description : Rng.t -> ?mention:string -> string -> string
(** A 1-3 sentence description around a subject name; [mention] embeds a
    foreign entity name (fuel for entity-mention links). *)

val go_definition : Rng.t -> string -> string
(** Ontology-style definition of a keyword. *)
