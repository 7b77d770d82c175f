(** The central metadata repository (§3, "Metadata repository").

    "In the spirit of the Corpus in the Revere project, it contains not
    only known and discovered schemata, but also information about primary
    and secondary relations, statistical metadata, and sample data [...] a
    large part of storage space will be consumed by the discovered links on
    the object level."

    The repository records what integration discovered per source: its
    relations, primary and foreign keys, statistics and samples, with
    each source's run report and the provenance of the last run. Its
    text format ({!save}/{!load_salvaging}) holds just that. The
    object-level links and the schema-level correspondences live in
    the warehouse's per-pair store (the store's [pairs.txt]), their one
    copy; the warehouse derives its link view from it. *)

open Aladin_relational
open Aladin_discovery

type source_record = {
  source : string;
  relations : (string * int) list;  (** (relation, row count) *)
  primary : (string * string) option;  (** (relation, accession attribute) *)
  fks : Inclusion.fk list;
  stats : Col_stats.t list;  (** statistical metadata *)
  sample : (string * string * string list) list;
      (** (relation, attribute, sample values) *)
}

type t

val create : unit -> t

val record_of_profile : Source_profile.t -> source_record

val add_source : t -> Source_profile.t -> unit
(** Replaces any record with the same source name. *)

val sources : t -> source_record list

val find_source : t -> string -> source_record option

val set_provenance : t -> string -> unit
(** Store the provenance record of the last pipeline run — by convention
    the JSON execution trace emitted by [Aladin_obs.Sink.to_json]
    ("statistics ... and provenance", §3). Replaces any previous record;
    persisted by {!save}/{!load_salvaging}. *)

val provenance : t -> string option

val set_run_report : t -> Aladin_resilience.Run_report.t -> unit
(** Store the typed run report of a source's latest pipeline run next to
    the trace (replacing any previous report for the same source);
    persisted by {!save}/{!load_salvaging}. *)

val run_reports : t -> Aladin_resilience.Run_report.t list
(** Latest report per source, most recent last. *)

val run_report : t -> string -> Aladin_resilience.Run_report.t option

val save : t -> string
(** The sources with their statistics and samples, the run reports and
    the provenance record. *)

val load_salvaging : string -> t * int
(** Inverse of {!save}, tolerant of documents that survived
    storage-level salvage (see [Aladin_store]): a lost header,
    unparseable lines and records orphaned by a dropped parent
    ([source]) line are skipped and counted. Returns the repository plus
    the number of lines dropped. Documents saved before the links moved
    to the pair store also carry [link] and [corr] records; they are
    not read here ([Pair_store] re-seeds from them) and only end the
    current source block. *)

val stats_summary : t -> (string * int * int) list
(** Per source: (name, #relations, #rows). *)
