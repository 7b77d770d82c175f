(** Foreign-key inference from inclusion dependencies (§4.2).

    "All unique attributes are considered as potential targets [...] and all
    attributes are considered as potential sources. If the values of a
    potential source are a true subset of the values of a potential target,
    we assume a 1:N relationship [...]. If the values are the same set, we
    assume a 1:1 relationship."

    The known surrogate-key ambiguity (two dictionary tables with integer
    keys 1..n) is resolved with the schema hint the paper itself suggests —
    "schema elements containing the substring ID in their name or elements
    that match partially to another schema element could also help": among
    value-compatible targets the one with the best name affinity wins, and
    a pure PK-to-PK integer match with zero name affinity is rejected. *)

type cardinality = One_to_one | One_to_many

type fk = {
  src_relation : string;
  src_attribute : string;
  dst_relation : string;
  dst_attribute : string;
  cardinality : cardinality;
  origin : [ `Declared | `Inferred ];
}

val pp_fk : Format.formatter -> fk -> unit

type params = {
  require_name_affinity_for_pk_pk : bool;
      (** reject integer PK ⊆ PK inferences with zero name affinity
          (default true) *)
  min_containment : float;
      (** fraction of the source's distinct values that must appear in the
          target. 1.0 (default) = exact inclusion dependencies; lower values
          implement approximate dependency inference (cf. [KM92]) for
          sources with dangling references. *)
}

val default_params : params

val infer : ?params:params -> ?pool:Aladin_par.Pool.t -> Profile.t -> fk list
(** All declared FKs (the data dictionary's) plus, for every remaining
    source attribute, the best value-compatible target (if any). Deterministic order: with a [pool]
    the per-source candidate scans fan out across domains, but the result
    (and the trace counters) are identical to the sequential run. *)
