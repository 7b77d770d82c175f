(** Purely schema-based matching baseline (the "schema-focused" column of
    Table 1, and the contrast to ALADIN's instance-based link discovery).

    Correspondences between two sources are proposed from attribute/relation
    NAMES only — no data is read. Its failure on generically named columns
    ("accession", "obj_ref") is exactly the paper's argument for using data
    characteristics instead. *)

open Aladin_relational

type correspondence = {
  src_source : string;
  src_relation : string;
  src_attribute : string;
  dst_source : string;
  dst_relation : string;
  dst_attribute : string;
  score : float;
}

val match_corpus : Catalog.t list -> correspondence list
(** All ordered source pairs: each attribute's best-named counterpart,
    kept when the name score is at least 0.75. *)
