(** Accession-number candidate detection (§4.2).

    "We analyze for each unique attribute whether each of its values
    contains at least one non-digit character and is at least four
    characters long. As accession numbers within one database usually all
    have the same length, we finally require the values of the attribute to
    differ by at most 20 percent in length. [...] Each table may have only
    one accession number candidate; if more than one candidate was found,
    only the one with the longer average field length is considered." *)

type params = {
  min_length : int;  (** default 4 — "shortest accession numbers we know" *)
  max_length_spread : float;  (** default 0.2 *)
  min_alpha_frac : float;
      (** fraction of values that must contain an {e alphabetic} character
          (the paper says "each", i.e. 1.0, which is the default — exposed
          for ablation).

          {b Known deviation from the paper:} §4.2 asks for "at least one
          non-digit character", but this test uses
          [Aladin_relational.Value.contains_alpha], i.e. at least one ASCII
          letter. Real-world accessions (UniProt [P12345], GenBank
          [NM_000546], GO terms [GO:0008150], PDB [1ABC]) all carry a
          letter and pass either way; the stricter letter rule additionally
          rejects digits-plus-separator columns such as [12:34567] or EC
          numbers [1.14.13.39], which under the paper's literal rule would
          qualify and, being surrogate-key-shaped, are frequent false
          positives. Set [min_alpha_frac = 0.0] to recover the permissive
          behaviour for sources whose accessions are purely numeric with
          separators. *)
}

val default_params : params

type candidate = {
  relation : string;
  attribute : string;
  avg_len : float;
  stats : Aladin_relational.Col_stats.t;
}

val candidates : ?params:params -> Profile.t -> candidate list
(** At most one candidate per relation (longest average length wins),
    in catalog order. *)
