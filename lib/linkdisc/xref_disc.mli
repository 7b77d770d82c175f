(** Explicit cross-reference discovery (§4.4, first kind of link).

    Cross-reference values are matched against the accession value set of
    every other source's primary relation. Both bare accessions
    ("P11140") and encoded forms ("Uniprot:P11140") are found — "matching
    the values of DBRef.accession against all unique fields of primary
    relations automatically finds the correct target database" (§5). *)

type params = {
  prune : bool;
      (** {!Prune.is_link_source}'s pruning (default true; false is the
          E6/E10 ablation) *)
  min_matches : int;
      (** rows that must match before an attribute counts as a
          cross-reference attribute (default 2); they must also be at
          least 2% of its non-null rows *)
}

val default_params : params

type correspondence = {
  src_source : string;
  src_relation : string;
  src_attribute : string;
  dst_source : string;
  dst_relation : string;
  dst_attribute : string;
  matches : int;
  match_frac : float;
  encoded : bool;  (** true when matches came from DB:ACC-style encodings *)
}

type result = {
  links : Link.t list;
  correspondences : correspondence list;
  attributes_scanned : int;
  pairs_compared : int;
}

val discover : ?params:params -> Profile_list.t -> result
(** The scan over every source in the list, sequential — the E6/E10
    evaluator. Link order is made canonical by {!Link.dedup}. *)

val discover_between :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  Profile_list.t ->
  a:string ->
  b:string ->
  result
(** {!discover} restricted to the canonically ordered source pair
    [(a, b)] — the delta pipeline's unit of work. With a [pool] the
    attribute x target scans fan out across domains; links,
    correspondences and counters are identical to the sequential run.
    The xref scan is strictly cross-source and scores each (attribute,
    target) independently, so the union of the per-pair results over
    all pairs equals the whole-warehouse run. Symmetric in [a]/[b]. *)
