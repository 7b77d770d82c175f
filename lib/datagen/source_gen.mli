(** Generate one relational data source from the universe, together with
    its gold record.

    The schema shape follows the life-science patterns of §1/§4.2: a
    primary relation keyed by an accession number plus an integer surrogate,
    1:1 sequence storage, 1:N annotation tables, keyword dictionary +
    bridge (M:N), organism dictionary (value-restricted attribute — the
    paper's confusion case), and a dbxref table carrying cross-references
    to other sources. *)

open Aladin_relational

type xref_style = Separate_db_column | Encoded

type shape = {
  primary_name : string;  (** e.g. "entry", "protein", "structure" *)
  accession_pattern : string;  (** {!Rng.pattern} shape, e.g. "P#####" *)
  with_sequence_table : bool;
  n_comment_tables : int;
  with_keyword_dictionary : bool;
  with_organism_dictionary : bool;
  xref_style : xref_style;
  generic_fk_names : bool;
      (** name FK columns "obj_ref" instead of "<primary>_id" — stresses
          the name-affinity heuristic *)
  declare_constraints : bool;  (** ship the real data dictionary *)
}

val default_shape : shape

type spec = {
  source_name : string;
  kind : Universe.kind;
  coverage : float;  (** fraction of the kind's entities stored *)
  shape : shape;
  xref_to : string list;  (** other source names to cross-reference *)
  xref_prob : float;  (** probability an applicable xref row is written *)
  corruption : float;  (** field-noise rate *)
  fk_noise : float;
      (** probability that an annotation row's FK value dangles (points at a
          nonexistent id) — dirty referential integrity for the approximate
          inclusion-dependency experiments *)
  seed : int;
}

val make_spec :
  ?shape:shape ->
  ?coverage:float ->
  ?xref_to:string list ->
  ?xref_prob:float ->
  ?corruption:float ->
  ?fk_noise:float ->
  ?seed:int ->
  name:string ->
  Universe.kind ->
  spec

val assign_accessions : Universe.t -> spec -> (int * string) list
(** (uid, accession) for the entities this source will store — computed
    before catalogs so that cross-references can be written. Deterministic
    in the spec seed. *)

type assignment = (string * (int * string) list) list
(** Per source: its accession table. *)

val build :
  Universe.t ->
  assignment ->
  gold:Gold.t ->
  spec ->
  Catalog.t
(** Builds the catalog, appends this source's {!Gold.source_gold} and its
    xrefs to [gold]. The source's own accessions must be present in the
    assignment. *)

val build_dual_primary :
  Universe.t -> name:string -> Catalog.t * (string * string) list
(** The EnsEmbl case of §4.2: a source "focused both on sequenced clones and
    the genes lying on those clones" — two accession-bearing central
    relations (clone, gene) joined by a bridge, each with its own
    annotations. Returns the catalog and the expected primaries as
    (relation, accession attribute) pairs. *)
