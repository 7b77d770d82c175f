(** Queries across the web of objects (§6 conclusions).

    "Consider a query for all genes of a certain species on a certain
    chromosome that are connected to a disease via a protein whose function
    is known." No mediated schema exists, so such queries traverse the
    discovered link graph: start from a set of objects (usually produced by
    SQL or search) and follow a sequence of typed link steps; results carry
    their evidence paths and a confidence score. *)

open Aladin_links

type step = {
  kinds : Link.kind list;  (** acceptable link kinds; [] = any *)
  target_source : string option;  (** restrict the step's endpoint *)
  min_confidence : float;  (** per-link threshold (default 0.0) *)
}

val step : ?kinds:Link.kind list -> ?target_source:string -> ?min_confidence:float -> unit -> step

type hit = {
  endpoint : Objref.t;
  path : Link.t list;  (** one witness path, start -> endpoint *)
  score : float;  (** product of link confidences along the path *)
  start : Objref.t;
}

type t
(** The per-object link index: for every object, the links with it on
    either end. It is the link graph that traversal ({!run}), path
    ranking ({!Path_rank}) and the browser ({!Browser.links_of}) all
    read; [Aladin.Engine] builds one per warehouse state. Read-only once
    built, so domains may share it. *)

val create : Link.t list -> t
(** Index the links (the warehouse's link view) by endpoint, once; build
    a new index after the links change. *)

val links_of : t -> Objref.t -> Link.t list
(** The links with the object on either end, in the order {!create} was
    given them, a self-link once; [[]] for an object without links. *)

val iter_adjacent : t -> Objref.t -> (Objref.t -> Link.t -> unit) -> unit
(** [iter_adjacent t o f] calls [f next l] for each link [l] at [o], in
    the reverse of {!links_of}'s order, where [next] is [l]'s other end
    ([o] itself for a self-link). {!run} and {!Path_rank} walk links in
    this order. *)

val run : t -> start:Objref.t list -> steps:step list -> hit list
(** Traverse (links are followed in both directions); objects are never
    revisited within one path. One hit per (start, endpoint) pair, keeping
    the best-scoring witness (the first found on a tie, links walked as
    {!iter_adjacent} walks them); descending score. With [steps = []]
    every start object is its own hit. *)
