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
}
(** Every value of a candidate must also contain an {e alphabetic}
    character: see the deviation note in accession.ml. *)

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
