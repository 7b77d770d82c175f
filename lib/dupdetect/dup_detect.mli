(** Duplicate detection across sources (§4.5, step 5 of Figure 2).

    Duplicates are flagged, never merged: the output is a set of
    [Duplicate] links plus clusters. Candidate pairs come from cheap
    blocking (shared accession string, shared rare name token; a key
    shared by more than 50 objects is not blocked on); candidates are
    verified with {!Object_sim.similarity_prepared}. When [min_similarity] is
    above 0.5, a candidate that fails {!Object_sim.may_agree} is not
    scored: without an identity agreement its similarity is at most 0.5,
    so it could not become a link. Such candidates still count in
    [candidates_checked], and the ambient trace counts them in
    [dup.candidates_skipped]. *)

open Aladin_links

type params = {
  min_similarity : float;  (** verification threshold (default 0.78) *)
  all_pairs : bool;
      (** compare every cross-source pair instead of blocking — exact but
          quadratic (default false) *)
}

val default_params : params

type result = {
  links : Link.t list;  (** kind = [Duplicate] *)
  clusters : string list list;  (** of {!Objref.to_string} keys *)
  candidates_checked : int;  (** blocking candidates, scored or not *)
}

val result_of_links : candidates_checked:int -> Link.t list -> result
(** The links with their clusters: the connected components of two or
    more objects, each sorted, in sorted order — the same whatever order
    the links come in. *)

val detect_on : ?params:params -> Object_sim.repr list -> result
(** Detection over prebuilt representations ({!Object_sim.build_reprs},
    whose [exclude_attributes] should name the cross-reference
    attributes discovered in step 4): prepares every object once, then
    runs the same core as {!detect_between}, sequentially — the
    evaluators' entry point. *)

type prepared_source
(** One source ready for {!detect_between}: its representations, each
    object's {!Object_sim.prepared} fields and its blocking keys. None
    of it depends on the source it is later paired with. *)

val prep_source :
  ?pool:Aladin_par.Pool.t ->
  ?exclude_attributes:(string * string * string) list ->
  Profile_list.t ->
  source:string ->
  prepared_source
(** Build ({!Object_sim.build_reprs} over the restriction to [source])
    and prepare one source's objects, fanned out over the [pool]. The
    delta pipeline prepares each source at most once per relink and
    reuses it in every {!detect_between} call of that relink. Only
    [exclude_attributes] triples naming [source] matter here. *)

val detect_between :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  prepared_source ->
  prepared_source ->
  result
(** Duplicate detection over two prepared sources — the delta pipeline's
    unit of dup work. Merges them in object order, builds the df context
    of just these two sources from the stored df keys, binds each
    object's field dfs once ({!Object_sim.bind}), then blocks and scores
    exactly as {!detect_on} over the merged representations does.
    Candidate blocking is cross-source only, so the pair's links depend
    only on the two sources; token document frequencies and the blocking
    cap are pair-local (a refinement of the old whole-warehouse
    statistics, applied uniformly by routing every dup pass through
    pairs). *)

val explain : Object_sim.repr list -> Link.t list -> (Link.t * string) list
(** [explain reprs links] is {!Object_sim.explain} of each link whose
    two objects are in [reprs], in link order. Each pair is scored under
    the df context of its link's two sources, the context detection
    scored it under, so given the representations detection compared
    (each source's {!Object_sim.build_reprs} under its exclude triples)
    every derivation ends in the link's confidence (as
    [aladin dups --explain] prints it). *)
