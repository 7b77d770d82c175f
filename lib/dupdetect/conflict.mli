(** Data conflicts between flagged duplicates (§4.5).

    "Different sources might contradict each other in the data they store
    about an object. [...] Exploring such contradictions is of great
    interest to biologists." A conflict is a matched field pair whose
    values disagree beyond noise: the attribute names have an affinity of
    at least 0.3 and the values a similarity below 0.8. *)

open Aladin_links

type t = {
  obj_a : Objref.t;
  obj_b : Objref.t;
  attr_a : string;
  attr_b : string;
  value_a : string;
  value_b : string;
  similarity : float;  (** field-value similarity — low but fields matched *)
}

type table
(** Representations looked up by object: the last one given for each
    {!Objref.to_string} key. Read-only once built. *)

val table : Object_sim.repr list -> table

val in_duplicates : table -> Link.t list -> t list
(** Conflicts inside every [Duplicate] link's pair, in link order; a
    link with an end the table lacks has none. Looks up only the links'
    own ends. *)

val to_string : t -> string
(** [source:acc.attr="value" vs source:acc.attr="value" (sim 0.42)], the
    values in OCaml string syntax: the conflict line of a browser page. *)

