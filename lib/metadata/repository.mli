(** The central metadata repository (§3, "Metadata repository").

    "In the spirit of the Corpus in the Revere project, it contains not
    only known and discovered schemata, but also information about primary
    and secondary relations, statistical metadata, and sample data [...] a
    large part of storage space will be consumed by the discovered links on
    the object level."

    The repository is the output of integration: what was discovered
    per source, the object-level links, and the schema-level
    correspondences. Its text format ({!save}/{!load}) holds the
    sources, run reports and provenance. The links and correspondences
    are a view the warehouse derives from its per-pair store (the
    store's [pairs.txt]), the one persisted copy of them, so {!save}
    does not write them. *)

open Aladin_relational
open Aladin_discovery
open Aladin_links

type source_record = {
  source : string;
  relations : (string * int) list;  (** (relation, row count) *)
  primary : (string * string) option;  (** (relation, accession attribute) *)
  fks : Inclusion.fk list;
  stats : Col_stats.t list;  (** statistical metadata, reused on later adds *)
  sample : (string * string * string list) list;
      (** (relation, attribute, sample values) *)
}

type t

val create : unit -> t

val record_of_profile : Source_profile.t -> source_record

val add_source : t -> Source_profile.t -> unit
(** Replaces any record with the same source name. *)

val remove_source : t -> string -> unit
(** Also drops links touching that source. *)

val sources : t -> source_record list

val find_source : t -> string -> source_record option

val set_links : t -> Link.t list -> unit
(** Replace the links with [links], taken as given: the caller passes a
    deduplicated list in {!Link.dedup}'s canonical order (the warehouse's
    merged pair-store view, or a filter of it). A list read from outside,
    such as a loaded repository's, goes through {!Link.dedup} first. *)

val add_links : t -> Link.t list -> unit
(** Merge (deduplicated). *)

val links : t -> Link.t list

val links_of : t -> Objref.t -> Link.t list
(** Links with the object on either end (symmetric kinds) or as source. *)

val set_correspondences : t -> Xref_disc.correspondence list -> unit

val correspondences : t -> Xref_disc.correspondence list

val set_provenance : t -> string -> unit
(** Store the provenance record of the last pipeline run — by convention
    the JSON execution trace emitted by [Aladin_obs.Sink.to_json]
    ("statistics ... and provenance", §3). Replaces any previous record;
    persisted by {!save}/{!load}. *)

val provenance : t -> string option

val set_run_report : t -> Aladin_resilience.Run_report.t -> unit
(** Store the typed run report of a source's latest pipeline run next to
    the trace (replacing any previous report for the same source);
    persisted by {!save}/{!load}. *)

val run_reports : t -> Aladin_resilience.Run_report.t list
(** Latest report per source, most recent last. *)

val run_report : t -> string -> Aladin_resilience.Run_report.t option

val save : t -> string
(** The sources with their statistics and samples, the run reports and
    the provenance record. Links and correspondences are not written. *)

val load : string -> t
(** Inverse of {!save}. Also reads the [link] and [corr] records that
    documents saved before links moved to the pair store carry, and
    returns them as {!links}/{!correspondences} (in document order, not
    deduplicated) so such stores can be re-seeded.
    @raise Invalid_argument on malformed input. *)

val load_salvaging : string -> t * int
(** Tolerant {!load} for documents that survived storage-level salvage
    (see [Aladin_store]): unparseable lines and records orphaned by a
    dropped parent ([source]) line are skipped instead of raised on.
    Returns the repository plus the number of lines dropped. *)

val stats_summary : t -> (string * int * int * int) list
(** Per source: (name, #relations, #rows, #links touching it). *)
