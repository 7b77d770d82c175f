(** The ALADIN warehouse: the paper's five-step integration pipeline
    (Figure 2). The access engine on top (Figure 1) is {!Engine}, which
    builds its structures from this module's views ({!profiles},
    {!links}, {!dup_reprs}, {!resolve_table}); the warehouse holds none
    of them.

    Sources are added incrementally; per-source statistics are computed
    once and reused, and links and duplicates live in a per-source-pair
    store ({!Pair_store}): adding or updating a source runs the
    {!Delta} pipeline, which recomputes only the pairs touching the
    changed source and merges every other pair's links verbatim — the
    merged result is byte-identical to a cold rebuild. Which link kinds
    actually changed feeds a typed {!Generation.t}, so downstream
    caches (the serve layer) can invalidate per source and per link
    kind instead of wholesale.

    Every pipeline step runs inside an error boundary with an optional
    wall-clock budget ({!Config.budgets}). A step that times out or
    raises has its partial results discarded deterministically: a failed
    {e primary discovery} quarantines the source (it is rolled back out
    of the warehouse and the remaining steps are skipped), while failed
    optional steps (secondary discovery, a link pass, duplicate
    detection) just contribute nothing and the run continues. What
    happened is returned — and persisted in the metadata repository
    ({!metadata}) — as a typed {!Aladin_resilience.Run_report.t}. *)

open Aladin_relational
open Aladin_discovery
open Aladin_links
module Run_report = Aladin_resilience.Run_report
module Import_error = Aladin_resilience.Import_error

type t

val create : ?config:Config.t -> unit -> t

val generation : t -> Generation.t
(** The typed invalidation state and the warehouse's only change
    counter: the [Whole] counter moves on every mutation (source
    added, replaced or quarantined, link rejected), per-source counters
    bump when that source is added or replaced, and per-link-kind
    counters bump when the delta pipeline (or {!reject_link}) actually
    changed that kind's merged link set. Derive cache keys from it with
    {!Generation.key} over the dependencies a consumer reads. A
    warehouse returned by {!load_dir} or a resume starts from fresh
    counters. *)

val last_delta : t -> Delta.audit option
(** Which source pairs the most recent {!add_source}/{!update_source}
    recomputed vs reused ([None] before any source). *)

val add_source :
  ?trace:Aladin_obs.Trace.t ->
  ?import_errors:Import_error.record_error list ->
  t ->
  Catalog.t ->
  Run_report.t
(** Steps 2-5 for the new source (step 1, import, happened when the
    caller produced the catalog — pass its recovered record errors as
    [import_errors] so the report's import step shows [Degraded]).
    Replaces any source with the same name. Never raises for pipeline
    failures: they are captured in the returned report, which is also
    kept as the source's latest report (see {!run_reports}).

    Every run is traced: spans for the five pipeline steps (child spans
    for profiling, FK inference, the link passes, ...) each carrying a
    ["status"] attribute, counters and latency histograms from the
    discovery layers. Pass [trace] to accumulate into your own
    collector; otherwise a fresh one is created. The trace is retained
    (see {!last_trace}) and its JSON rendering kept as the provenance
    record of {!metadata}, through {!save_dir}/{!load_dir}. Step timings in the report come from
    the same monotonic wall clock as the spans.

    On a warehouse that carries a journal (see {!integrate_journaled}),
    the addition is a journaled step.
    @raise Sys_error when that step's checkpoint cannot be saved. *)

val report_import_failure : t -> source:string -> Import_error.t -> Run_report.t
(** Record that a source failed before reaching the pipeline (import
    could not produce a catalog). The source is quarantined: the report
    marks the import step [Failed] and steps 2-5 skipped, and is kept
    with {!run_reports}; the warehouse itself is untouched. *)

val integrate : ?config:Config.t -> ?trace:Aladin_obs.Trace.t -> Catalog.t list -> t
(** Fresh warehouse with all sources added (all into the same [trace]
    when given). A source whose pipeline fails is quarantined; the
    others still integrate fully — inspect {!run_reports}. *)

type resume_info = {
  resumed_sources : string list;
      (** committed steps restored from the journal's store, in plan
          order *)
  executed_sources : string list;  (** steps actually (re)computed *)
}

val integrate_journaled :
  ?config:Config.t ->
  ?trace:Aladin_obs.Trace.t ->
  ?source_paths:(string * string) list ->
  journal:string ->
  Catalog.t list ->
  (t * resume_info, string) result
(** {!integrate}, journaled at [journal] (see {!Aladin_store.Journal}):
    the plan is written once to [<journal>/JOURNAL], and each source
    addition runs the pipeline and then {!save_dir}s the whole warehouse
    into [<journal>/store]. The store's manifest rename commits the
    step; there is no other commit record. A failed save is [Error].

    Calling this again with the same [journal], [config] and catalogs
    resumes a killed run by one rule, shared with {!journal_status}: if
    {!load_dir} of the store is clean and its run reports name exactly a
    prefix of the plan, that prefix is restored (run reports flagged
    [Run_report.resumed]) and the rest of the plan runs. A step killed
    before its manifest rename is recomputed; one killed after it is
    restored. A store that does not load, does not load clean, or holds
    a report beyond that prefix restores nothing, and the whole plan
    re-runs over it. A store rolled back to an earlier generation
    resumes from that generation. The final source order, links,
    correspondences and run-report outcomes are byte-identical to an
    uninterrupted run.

    The journal header records the plan (source names, content digests,
    optional [source_paths] origins) and a config digest; resume refuses
    ([Error]) a different config, a changed or unplanned source, and a
    journal in an older format. A fresh journal needs an empty
    directory (leftover temp files aside): one holding only a [store/]
    is refused too, so a new plan never adopts a stale store. Committed
    catalogs may be omitted on resume; omitting one that must re-run is
    an error naming its original path. The journal stays attached:
    later {!add_source}/{!update_source} calls are journaled too.
    @raise Aladin_store.Fault.Killed under an armed chaos fault. *)

type journal_source = {
  js_name : string;
  js_path : string option;  (** origin recorded at first integrate *)
  js_committed : bool;  (** restorable from the journal's store *)
}

val journal_status : string -> (journal_source list, string) result
(** The journaled plan and which sources a resume under
    {!Config.default} would restore rather than re-run. The same rule as
    resume, on the same {!load_dir} of the store (which quarantines and
    sweeps as any load does); nothing is written to the journal. *)

val resume_journal :
  ?config:Config.t ->
  ?trace:Aladin_obs.Trace.t ->
  import:(string -> Catalog.t) ->
  string ->
  (t * resume_info, string) result
(** [resume_journal ~import journal] resumes [journal] from the source
    paths its plan recorded: what [aladin integrate --resume DIR] runs
    when given no files. The store is loaded once, before anything is
    imported. [import] is then called, in plan order, on the recorded
    path of each source that load does not restore, and the resume goes
    on as {!integrate_journaled} of those catalogs would: the same
    checks, the same errors (a source to re-run without a recorded path
    is one), the same result. *)

val run_reports : t -> Run_report.t list
(** Latest report per source (quarantined and failed-import sources
    included), in the order they were last recorded. *)

val last_trace : t -> Aladin_obs.Trace.t option
(** Execution trace of the most recent {!add_source} run. *)

val sources : t -> string list

val catalogs : t -> Catalog.t list

val catalog : t -> string -> Catalog.t option

val profiles : t -> Profile_list.t

val profile : t -> string -> Source_profile.t option

val links : t -> Link.t list
(** The link view: the per-pair store's merged links ({!Pair_store},
    the warehouse's only link state) less the links rejected through
    {!reject_link}, in {!Link.dedup}'s canonical order. Set after every
    relink, {!load_dir} and {!reject_link}; {!duplicates} and the
    access structures are derived from it. *)

val correspondences : t -> Xref_disc.correspondence list
(** The schema-level correspondences, read from the per-pair store. *)

val duplicates : t -> Aladin_dup.Dup_detect.result
(** The [Duplicate] links of {!links}, clustered
    ({!Aladin_dup.Dup_detect.result_of_links}), with the candidate count
    the per-pair store records. A rejected duplicate leaves its cluster
    at once, and a loaded store shows the clusters of the warehouse that
    saved it. *)

val dup_reprs : t -> Aladin_dup.Object_sim.repr list
(** Every object's representation as the duplicate pass built it,
    source by source in warehouse order: {!Aladin_dup.Object_sim.build_reprs}
    of the source alone, under its exclude triples
    ({!Pair_store.exclude_triples}, the cross-reference attributes
    discovered for it), built when this runs. The browser's conflicts
    and {!explain_duplicates} both compare these, so an attribute that
    holds another object's accession is never reported as a conflict. *)

val explain_duplicates : t -> (Link.t * string) list
(** {!Aladin_dup.Dup_detect.explain} of {!duplicates} over {!dup_reprs},
    so every derivation ends in its link's confidence. *)

val metadata : t -> string
(** The metadata repository's document
    ({!Aladin_metadata.Repository.render}): each source's structure,
    statistics and samples, rendered from its profile (the one record of
    a source), then {!run_reports} and the provenance record: the JSON
    rendering of the last pipeline run's trace ({!last_trace}), kept
    through {!save_dir}/{!load_dir}. What {!save_dir} stores as [metadata.txt] and
    [aladin integrate -o] writes. Links live in the per-pair store, see
    {!links}. *)

val resolve_table : t -> string -> Relation.t option
(** ["source.relation"], or a bare relation name when unique warehouse-wide. *)

val notify_change : t -> source:string -> changed_rows:int -> [ `Reanalyze | `Defer ]
(** §6.2 change policy: compare the (accumulated) changed-row fraction with
    [config.change_threshold]. Deferred changes accumulate until the
    threshold trips. *)

type update_report = {
  outcome : [ `Reanalyzed of Run_report.t | `Deferred ];
  delta : Delta.audit option;
      (** the reanalysis' recomputed-vs-reused source pairs; [None] when
          the change was deferred (nothing ran) *)
}

val update_source : t -> Catalog.t -> changed_rows:int -> update_report
(** Apply {!notify_change}; on [`Reanalyze] the source is replaced, the
    pending counter resets, and only the source pairs touching it are
    recomputed (see {!Delta}) — the report's [delta] says which. *)

val feedback : t -> Feedback.t

val reject_link : t -> Link.t -> unit
(** §6.2 user feedback: the link disappears immediately and stays gone
    through future re-discovery. *)

val save_dir : t -> string -> (unit, string) result
(** Materialize the warehouse as a crash-safe [Aladin_store] snapshot:
    each source's relations as checksummed CSVs under
    [<source>/<relation>.csv] (with its declared constraints), plus
    [sources.txt], [metadata.txt] ({!metadata}: the sources' structure
    and statistics, the run reports and the provenance), [pairs.txt]
    (the per-source-pair link store, the one copy of the links and
    correspondences, so a later [aladin add] onto the loaded store pays
    only the new source's delta) and [feedback.txt] as
    per-record-checksummed record files — all committed atomically by
    the manifest rename, so a crash mid-save leaves the previous
    snapshot fully intact. Creates the directory; refuses ([Error]) to
    clobber an existing non-empty directory that is not an ALADIN
    store. Refuses ([Error], naming the source, before anything is
    written) a source whose name holds a [/] or a newline: the store
    could not give it back. *)

val load_dir :
  ?config:Config.t ->
  ?reanalyze:bool ->
  string ->
  t * Aladin_store.Load_report.t
(** Restore a saved warehouse, salvaging around damage instead of
    aborting: members are verified against the manifest, corrupt
    repository/feedback records and CSV rows are dropped and counted,
    unreadable members are quarantined into [<dir>/.quarantine/], and
    everything that happened comes back as the
    {!Aladin_store.Load_report.t} (rendered by [aladin load], which
    exits nonzero under [--strict] when any member degraded).

    Saved feedback is restored in both modes. With [reanalyze] (default
    false) the five steps re-run from the raw data; otherwise each
    source is profiled exactly as {!add_source} profiles it, and the
    saved per-pair store, run reports and provenance are trusted, so no
    link/duplicate discovery happens. Only the run reports and the
    provenance are read back from [metadata.txt]; its source blocks are
    rendered from the profiles and skipped unread. The link view, and
    with it the duplicate clusters, is derived from the per-pair store
    ([pairs.txt], the one copy of the links and correspondences), as a
    relink derives it. The [link]/[corr] records of a [metadata.txt] saved before that
    re-seed the pairs [pairs.txt] lacks ({!Pair_store.seed_missing});
    its unparseable ones count as dropped lines of that member. A
    journaled integration resumes through this too.
    @raise Sys_error when the store itself is unusable (no directory,
    no manifest, or a manifest failing its own checksum), or when a
    source's primary discovery fails on reload. *)
