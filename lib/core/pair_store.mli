(** The warehouse's per-source-pair link store — the data structure the
    delta pipeline reads and writes.

    Every link the pipeline discovers belongs to exactly one unordered
    source pair (the sources of its two endpoints), so the warehouse's
    merged link set is a pure function of this map. A pair's links are
    one list, whichever pass found them; the store routes every record
    by its endpoints alone and names no link kind. Which pass rewrites
    which links is the delta pipeline's rule ({!Delta.relink}): each
    phase replaces the kinds it owns in the pairs it recomputes, and
    every other link of those pairs, like every other pair, is kept
    verbatim.

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
  links : Link.t list;
      (** every pass's links between the pair's sources, in
          {!Link.dedup}'s form *)
  correspondences : Xref_disc.correspondence list;
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

val all_links : t -> Link.t list
(** Every pair's links: [Link.dedup] of their concatenation, the
    warehouse's merged link set (before feedback filtering). Every list
    the pipeline stores is already in [Link.dedup]'s form (each pass
    ends in it, a relink merges with {!Link.union}, {!save} keeps each
    list's order and {!load} puts each list in form), so this is
    {!Link.union}'s merge of the lists, with no hashing or sorting; a
    list out of form is deduplicated first. *)

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
    header, then its links in their order, then its correspondences.
    Written into one buffer. *)

val load : string -> t * int
(** [load doc] returns the store plus the number of lines it dropped as
    unparseable. Total on any input. Every link and correspondence line
    is routed to the canonical pair of its own endpoints' sources, in
    document order, and each pair's links are then put in
    {!Link.dedup}'s form once (a list a save wrote is already in form:
    one check). A [pair] header only sets that pair's dup-candidate
    count. So a lost or damaged line costs that record alone, and a
    lost header only its count. A document written before a pair held
    one list (links grouped by pass, and the shared-term links after an
    [onto] header) loads to the same entries: the header is skipped.
    One pass over [doc] by index: each record goes to its pair's
    accumulator, and each entry is built once, at the end. *)

val seed_missing : t -> string -> int
(** [seed_missing t meta] backfills from the [link]/[corr] records of a
    [metadata.txt] document [meta] written before the repository
    stopped storing links. They carry the fields of [plink]/[pcorr] and
    are read by the same parsers and routed the same way, so the
    records recover the entries of any pairs this store does not hold:
    every pair of a store saved before [pairs.txt] existed, or a pair
    none of whose records survived in [pairs.txt]. Pairs already
    present are left untouched. Returns the number of [link]/[corr]
    lines it dropped as unparseable. *)
