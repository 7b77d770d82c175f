(** Primary-relation discovery (§4.2, step 2 of Figure 2).

    "We choose as the primary relation the table with highest in-degree of
    all tables containing an accession number candidate." The multi-primary
    variant uses the paper's suggested refinement: relations whose in-degree
    exceeds the average in-degree by a margin. *)

type scored = {
  relation : string;
  accession_attribute : string;
  in_degree : int;
  score : float;  (** in-degree, with row count as a small tie-breaker *)
}

val choose : Fk_graph.t -> Accession.candidate list -> scored option
(** The single primary relation: the best of the accession-bearing
    relations. Deterministic. *)

val choose_multi : Fk_graph.t -> Accession.candidate list -> scored list
(** All accession-bearing relations whose in-degree is at least 0.5
    above the graph's average in-degree; falls back
    to the single best when none clears the bar. For sources like EnsEmbl
    with two primary relations. *)
