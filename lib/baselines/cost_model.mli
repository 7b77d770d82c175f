(** Quantified Table 1: the manual cost of integrating a corpus under each
    of the three approaches.

    Cost is counted in "manual interventions" (a curation decision, a
    mapping rule, a spec line) plus a rough person-minutes estimate, so the
    three columns of the paper's Table 1 become one measured row each. *)

open Aladin_relational

type cost = {
  approach : string;
  manual_interventions : int;
  person_minutes : float;
  notes : string;
}

val data_focused : Catalog.t list -> cost
(** Manual curation of every row. *)

val schema_focused : Catalog.t list -> cost
(** Wrapper per source + mapping rule per attribute (mediator style). *)

val srs_style : Srs.spec list -> cost
(** Spec items from {!Srs.manual_items}, plus a parser per source. *)

val aladin : Catalog.t list -> n_parsers_needed:int -> cost
(** Only the import parsers that had to be written by hand; the rest is
    automatic. *)
