(** The warehouse's per-source-pair link store — the data structure the
    delta pipeline reads and writes.

    Every link the pipeline discovers belongs to exactly one unordered
    source pair (the sources of its two endpoints), so the warehouse's
    merged link set is a pure function of this map: integrating or
    updating a source recomputes only the entries of pairs that touch
    it, and {!all_links} merges the rest verbatim. The one exception is
    the shared-term pass, whose per-object-pair confidence counts shared
    targets across {e all} xref links (a third source's xrefs raise a
    pair's confidence), so its output is held as a single global
    component ({!onto}/{!set_onto}) recomputed on every delta — it is
    cheap, derived from already-discovered xref links.

    The store serializes to one line-record document ({!save}/{!load}),
    persisted as the [pairs.txt] member (a
    {!Aladin_store.Snapshot.kind.Records} member) of warehouse
    snapshots, journal checkpoints included. It is the
    warehouse's only link state, in memory and on disk: the warehouse's
    link view, its duplicate clusters and its correspondences are
    derived from it, so {!load} salvages record by record and a damaged
    line loses that record alone. *)

open Aladin_links

type entry = {
  xref_links : Link.t list;
  correspondences : Xref_disc.correspondence list;
  seq_links : Link.t list;
  text_links : Link.t list;  (** [Text_similarity] and [Entity_mention] *)
  dup_links : Link.t list;
  dup_candidates : int;  (** candidate pairs the dup pass verified *)
}

val empty_entry : entry

type t

val create : unit -> t

val canon : string -> string -> string * string
(** The canonical (sorted) form of an unordered source pair. *)

val find : t -> string -> string -> entry option
(** Order-insensitive. *)

val set : t -> string -> string -> entry -> unit

val pairs : t -> ((string * string) * entry) list
(** All entries, sorted by canonical pair key. *)

val pair_keys : t -> (string * string) list

val onto : t -> Link.t list
(** The global shared-term component ([Shared_term] links). *)

val set_onto : t -> Link.t list -> unit

val all_links : t -> Link.t list
(** Every pass's links over every pair, plus the shared-term component:
    [Link.dedup] of their concatenation, the warehouse's merged link set
    (before feedback filtering). Every list the pipeline stores is
    already in [Link.dedup]'s form (each pass ends in it, and {!save}
    and {!load} keep each list's order), so this is {!Link.union}'s
    merge of the lists, with no hashing or sorting; a list out of form
    is deduplicated first. *)

val correspondences : t -> Xref_disc.correspondence list
(** All pairs' xref correspondences in one canonical (sorted) order. *)

val dup_candidates_total : t -> int

val exclude_triples : t -> source:string -> (string * string * string) list
(** The (source, relation, attribute) triples of correspondences whose
    {e source side} is [source], sorted — the attributes the dup pass
    must keep out of [source]'s representations. Comparing this set
    before and after an xref delta tells the pipeline which sources'
    prepared representations (and hence which additional dup pairs) are
    stale. *)

val save : t -> string
(** The [pairs.txt] document: the pairs in {!pairs} order, each a [pair]
    header and then its records (xref links, correspondences, seq, text
    and dup links, each list in its order), then the shared-term
    component. Written into one buffer. *)

val load : string -> t * int
(** [load doc] returns the store plus the number of lines it dropped as
    unparseable. Total on any input. Every link and correspondence line
    is routed to the canonical pair of its own endpoints' sources (a
    shared-term link to {!onto}), in document order; a [pair] header
    only sets that pair's dup-candidate count. So a lost or damaged
    line costs that record alone, and a lost header only its count.
    One pass over [doc] by index: each record goes to its pair's
    accumulator, and each entry is built once, at the end. *)

val seed_missing : t -> string -> int
(** [seed_missing t meta] backfills from the [link]/[corr] records of a
    [metadata.txt] document [meta] written before the repository
    stopped storing links. They carry the fields of [plink]/[pcorr] and
    are read by the same parsers; every other line is ignored. Every
    link maps to exactly one pair (and kind), so partitioning them
    recovers the entries of any pairs this store does not hold — every
    pair of a store saved before [pairs.txt] existed, or a pair none of
    whose records survived in [pairs.txt]. Pairs (and the shared-term
    component) already present are left untouched. Returns the number
    of [link]/[corr] lines it dropped as unparseable. *)
