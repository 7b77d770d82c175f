(** Secondary-relation discovery (§4.3, step 3 of Figure 2).

    "We compute the path(s) from the primary relation to each of the other
    relations of the data source using transitivity of relationships,
    ignoring direction and cardinality. [...] If multiple paths exist, all
    are stored." Relations unreachable from the primary relation are
    reported as orphans — the paper expects none in practice. *)

type entry = {
  relation : string;
  paths : Fk_graph.path list;  (** shortest first *)
  depth : int;  (** length of a shortest path *)
  kind : [ `Annotation | `Bridge | `Dictionary ];
      (** [`Bridge]: a bare M:N connector (all attributes are FK endpoints);
          [`Dictionary]: a referenced lookup table (target of an equal-set
          FK); everything else is ordinary [`Annotation]. *)
}

type t = {
  primary : string;
  entries : entry list;  (** by depth, then name *)
  orphans : string list;  (** relations with no path to the primary *)
}

val discover : ?max_len:int -> Fk_graph.t -> primary:string -> t
(** [max_len] (default 6) bounds path search. *)

val pp : Format.formatter -> t -> unit
