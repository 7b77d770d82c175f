(** Implicit links from sequence homology (§4.4, second kind of link).

    Sequence fields are detected by their fixed alphabet; values are
    indexed per alphabet and similar pairs become [Seq_similarity] links
    between the owning primary objects. *)

type params = {
  min_normalized : float;  (** alignment score threshold (default 0.5) *)
  min_seq_len : int;  (** ignore shorter values (default 20) *)
  cross_source_only : bool;  (** default true *)
  sample_for_detection : int;  (** values sampled to classify a column (default 50) *)
}

val default_params : params

type seq_field = {
  source : string;
  relation : string;
  attribute : string;
  kind : Aladin_seq.Alphabet.kind;
}

val sequence_fields : params -> Profile_list.t -> seq_field list
(** All attributes detected as sequence fields. *)

type result = {
  links : Link.t list;
  fields : seq_field list;
  sequences_indexed : int;
  pairs_verified : int;
}

val discover :
  ?params:params -> ?pool:Aladin_par.Pool.t -> Profile_list.t -> result
(** With a [pool] the all-pairs homology search fans out across domains;
    the result is identical to the sequential run. *)

(** {2 Incremental discovery}

    Sequence comparison dominates integration cost, so the warehouse keeps a
    persistent homology index: adding a source only aligns the NEW
    sequences against everything indexed so far (§6.2: statistics and
    indexes are "computed only once for each data source and can then be
    reused for subsequently added data sources"). *)

type state

val state_create : ?params:params -> unit -> state

val state_sources : state -> string list

val state_add_source :
  ?pool:Aladin_par.Pool.t -> state -> Profile_list.t -> source:string -> Link.t list
(** Index the named source's sequence fields; returns the NEW links (new
    vs. indexed, and new vs. new). The profile list must contain every
    source indexed so far plus the new one. New-vs-new pairs are all
    within the source, so with [cross_source_only] they are not aligned
    at all. With a [pool] the new-vs-indexed searches fan out (the
    persistent index is read-only during the fan-out; new-vs-new stays
    sequential), with identical results and counters.
    @raise Invalid_argument when the source is already indexed. *)

val state_index_source : state -> Profile_list.t -> source:string -> unit
(** Rebuild fast path: index the source's sequences WITHOUT searching —
    for sources whose links are already known (restored from a store).
    Must be called in the original integration order; the rebuilt index
    is then byte-for-byte what the original run had.
    @raise Invalid_argument when the source is already indexed. *)

val discover_between :
  ?params:params ->
  ?pool:Aladin_par.Pool.t ->
  Profile_list.t ->
  a:string ->
  b:string ->
  result
(** Batch {!discover} restricted to the canonically ordered source pair
    [(a, b)] — the delta pipeline's non-incremental fallback when the
    persistent index is disabled. Alignment scores depend only on the
    two sequences, so the union over pairs equals the global all-pairs
    run. Symmetric in [a]/[b]. *)
