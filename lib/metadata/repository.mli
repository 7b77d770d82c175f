(** The central metadata repository (§3, "Metadata repository").

    "In the spirit of the Corpus in the Revere project, it contains not
    only known and discovered schemata, but also information about primary
    and secondary relations, statistical metadata, and sample data [...] a
    large part of storage space will be consumed by the discovered links on
    the object level."

    This module is the codec of the repository's text document,
    [metadata.txt]. It holds no state: the warehouse's source profiles
    are the one record of each source, and {!render} writes each
    source's block (its relations, primary and foreign keys, statistics
    and samples) from its profile, followed by the run reports and the
    provenance of the last run. {!read} returns only what the data
    cannot rebuild: the reports and the provenance. The object-level
    links and the schema-level correspondences live in the warehouse's
    per-pair store (the store's [pairs.txt]), their one copy. *)

open Aladin_discovery

val render :
  profiles:Source_profile.t list ->
  reports:Aladin_resilience.Run_report.t list ->
  provenance:string option ->
  string
(** The document: a header, one block per profile in list order, one
    record per run report in list order, then the provenance record —
    by convention the JSON execution trace emitted by
    [Aladin_obs.Sink.to_json] ("statistics ... and provenance", §3). *)

type contents = {
  reports : Aladin_resilience.Run_report.t list;  (** in document order *)
  provenance : string option;
  dropped : int;  (** lines that were lost or could not be read *)
}

val read : string -> contents
(** What {!render} wrote and cannot be rebuilt from the data. Total on
    any input, and tolerant of documents that survived storage-level
    salvage (see [Aladin_store]): a lost header and unreadable lines
    are counted in [dropped] and skipped. Source-block records are
    skipped unread, since the profiles they were rendered from are
    rebuilt from the data; so are the [link] and [corr] records of
    documents saved before the links moved to the pair store
    ([Pair_store] re-seeds from them). *)
