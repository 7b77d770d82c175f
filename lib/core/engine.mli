(** The unified access-engine facade (§4.6): build once, serve many.

    Every access-layer entry point — the CLI subcommands, the shell,
    the examples, and the [lib/serve] daemon — goes through this one
    handle, and this module is the only code that builds access
    structures: the search index, one per-object link index over the
    warehouse's link view ({!Aladin_access.Link_query.t}, which the
    browser, traversal and path ranking all read) and the browser with
    its conflict representations. {!create} forces all of them eagerly,
    exactly once, in one build function; browse, search, SQL and
    link-path queries then share the same session state, so a
    long-lived process (or a sequence of CLI operations over one
    warehouse) never pays a per-command rebuild. A mutation made through
    the facade runs the same build again; the structures themselves
    never change once built, so worker domains may read them at once.

    Invalidation is typed: the facade derives cache keys ({!key}) from
    the warehouse's per-source / per-link-kind {!Generation.t}
    counters. A consumer declares which dependencies a cached
    computation reads (a [Source], a [Link_kind], or [Whole]); its key
    then changes exactly when one of those moved, so — unlike the old
    single generation counter — the serving layer's response cache
    survives updates of unrelated sources. *)

open Aladin_relational
open Aladin_links
open Aladin_access
module Run_report = Aladin_resilience.Run_report
module Import_error = Aladin_resilience.Import_error

type t

val create : Warehouse.t -> t
(** Wrap a warehouse and build its search index, link index and browser
    over its current contents. *)

val integrate : Catalog.t list -> t
(** [create (Warehouse.integrate catalogs)] under {!Config.default} —
    the one-step form the examples use. *)

val warehouse : t -> Warehouse.t

val key : t -> Generation.dep list -> string
(** Typed cache key over the given dependencies:
    {!Generation.key} of the warehouse's counters. Stable exactly
    while none of the named dependencies changed — keys over
    [[Source s]] survive additions and updates of every other source,
    keys over [[Link_kind k]] survive changes to other kinds, and
    [[Whole]] moves on every addition or update of a source (a link
    rejection moves only its kind). Equal keys guarantee
    byte-identical query results (see {!Aladin_access.Search}'s
    determinism contract). *)

(** {2 Browse} *)

val objects : t -> Objref.t list

val view : t -> Objref.t -> Browser.view option

val browse : t -> ?source:string -> string -> Browser.view option
(** Page for an accession: with [source], a direct lookup in that
    source; otherwise the accession is resolved warehouse-wide first. *)

val follow : t -> Browser.view -> int -> Browser.view option

val browser : t -> Browser.t
(** The shared browser handle (for {!Aladin_access.Html_export}). *)

(** {2 Search} *)

val search : t -> ?limit:int -> string -> Search.hit list

val focused :
  t -> ?source:string -> ?field:string -> ?limit:int -> string -> Search.hit list

val resolve : t -> string -> Objref.t option
(** Exact accession lookup ("known-item" access). *)

(** {2 Query} *)

val query : t -> string -> (Relation.t, string) result
(** SQL over the integrated warehouse's tables
    ({!Warehouse.resolve_table}). Lexer, parse and evaluation errors
    come back as [Error msg] (["lex error: ..."], ["parse error: ..."],
    or the evaluator's message) — the facade never raises. *)

val links : ?kind:string -> t -> Link.t list
(** Discovered links, optionally filtered by {!Link.kind_name}. *)

val traverse :
  t -> start:Objref.t list -> steps:Link_query.step list -> Link_query.hit list
(** Cross-database path query over the link graph. *)

val related : t -> Objref.t -> (Objref.t * float) list
(** Objects ranked by link-path evidence ({!Path_rank.rank_from}). *)

val link_index : t -> Link_query.t
(** The shared per-object link index (for pairwise
    {!Path_rank.relatedness}). *)

(** {2 Mutation} *)

val update_source : t -> Catalog.t -> changed_rows:int -> Warehouse.update_report
(** {!Warehouse.update_source}; the access structures are built anew (and
    the updated source's generation counter moves) only on
    [`Reanalyzed] — a deferred change
    leaves query results, and every cache key, untouched. Even a
    reanalysis leaves keys over {e other} sources intact. *)

val reject_link : t -> Link.t -> unit
(** §6.2 feedback: the link disappears immediately and stays gone. Only
    the link index is built anew, and the browser moved onto it
    ({!Aladin_access.Browser.with_index}): the search index, the
    browser's row indexes and the duplicate representations read only
    the profiles and the exclude triples, which a rejection leaves
    alone, so they are kept. Only the link kind's generation counter
    moves. *)
