(** The synthetic "real world": biological entities and their true
    relationships. Sources generated from one universe overlap, contradict
    and cross-reference each other exactly the way §2 describes, and every
    generated fact is traceable back to an entity uid. *)

type kind = Protein | Gene | Structure | Disease | Term | Interaction

type entity = {
  uid : int;
  kind : kind;
  name : string;  (** short unique symbol (gene-style) *)
  long_name : string;
  description : string;
  sequence : string option;
  family : int option;  (** homology family; sequences in one family align *)
  keywords : string list;
  related : int list;  (** uids: structure->protein, gene->protein,
                           disease->gene, interaction->its two proteins *)
  organism : string;
}

type params = {
  seed : int;
  n_proteins : int;
  n_genes : int;
  n_structures : int;
  n_diseases : int;
  n_terms : int;
  n_interactions : int;
  n_families : int;
  seq_len : int;
  mutation_rate : float;
}

val default_params : params
(** 120 proteins, 60 genes, 50 structures, 20 diseases, 24 terms,
    30 interactions, 12 families, 120-residue sequences, 5 % mutation rate,
    seed 42. *)

type t

val generate : params -> t

val params : t -> params

val entity : t -> int -> entity
(** By uid. @raise Not_found *)

val of_kind : t -> kind -> entity list
