(** Ground truth recorded during corpus generation — the "existing
    integrated database" the paper proposes as a learning test set (§5:
    "precision and recall methods for finding primary relations, secondary
    relations, cross-references, and duplicates can be derived"). *)

type expected_fk = {
  src_relation : string;
  src_attribute : string;
  dst_relation : string;
  dst_attribute : string;
}

type source_gold = {
  source : string;
  primary_relation : string;
  accession_attribute : string;
  fks : expected_fk list;
  objects : (string * int) list;  (** accession -> entity uid *)
}

type t = {
  mutable sources : source_gold list;
  mutable xrefs : (string * string) list;
      (** directed ("src_source:acc", "dst_source:acc") object pairs whose
          cross-reference was physically written into the data *)
}

val create : unit -> t

val add_source : t -> source_gold -> unit

val add_xref : t -> src:string -> dst:string -> unit
(** Keys are ["source:accession"]. *)

val obj_key : source:string -> accession:string -> string

val find_source : t -> string -> source_gold option

val duplicate_pairs : t -> (string * string) list
(** Unordered canonical pairs of objects in different sources sharing an
    entity uid. *)

val family_pairs : Universe.t -> t -> (string * string) list
(** Cross-source object pairs whose entities belong to the same homology
    family (expected sequence-similarity links). Only entities with
    sequences count. *)
