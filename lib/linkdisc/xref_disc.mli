(** Explicit cross-reference discovery (§4.4, first kind of link).

    Cross-reference values are matched against the accession value set of
    every other source's primary relation. Both bare accessions
    ("P11140") and encoded forms ("Uniprot:P11140") are found — "matching
    the values of DBRef.accession against all unique fields of primary
    relations automatically finds the correct target database" (§5). *)

type params = {
  prune : Prune.params;
  min_matches : int;  (** rows that must match before an attribute counts
                          as a cross-reference attribute (default 2) *)
  min_match_frac : float;  (** of the attribute's non-null rows (default 0.02) *)
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

val discover :
  ?params:params -> ?pool:Aladin_par.Pool.t -> Profile_list.t -> result
(** With a [pool] the attribute x target scans fan out across domains;
    links, correspondences and counters are identical to the sequential
    run (link order is made canonical by {!Link.dedup}). *)

val discover_between :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  Profile_list.t ->
  a:string ->
  b:string ->
  result
(** {!discover} restricted to the canonically ordered source pair
    [(a, b)] — the delta pipeline's unit of work. The xref scan is
    strictly cross-source and scores each (attribute, target)
    independently, so the union of the per-pair results over all pairs
    equals the whole-warehouse run. Symmetric in [a]/[b]. *)
