(** The delta pipeline — the warehouse's only link-discovery and
    duplicate-detection path.

    [relink ~changed] recomputes exactly the source pairs touching the
    changed source: its pairwise xref/seq/text passes, the (cheap,
    global) shared-term pass, and the duplicate pairs whose endpoints'
    exclude-attribute sets shifted under the new correspondences. Every
    other pair's links are reused verbatim from the {!Pair_store}. A
    cold {!Warehouse.integrate} is this delta applied once per source,
    so incremental results are byte-identical to a full rebuild by
    construction.

    Failure semantics mirror the batch pipeline per recomputed pair: a
    pass that is disabled, budget-zero, over budget or crashed leaves
    the {e recomputed} pairs without its links (just as a from-scratch
    run would), while reused pairs keep theirs. Step and pass names,
    budget keys and report shapes are identical to the old
    whole-warehouse relink. *)

open Aladin_links
module Dup = Aladin_dup
module Report = Aladin_resilience.Run_report

type audit = {
  recomputed_pairs : (string * string) list;
      (** canonical source pairs this run recomputed (link passes, dup
          pass, or both) *)
  reused_pairs : (string * string) list;
      (** pairs whose links were merged verbatim from the store *)
}

type outcome = {
  link_step : Report.step_report;  (** "link discovery", with pass children *)
  dup_step : Report.step_report;  (** "duplicate detection" *)
  report : Linker.report option;
      (** whole-warehouse view synthesized from the store (reused pairs
          included); [None] when the link phase was skipped or failed *)
  dups : Dup.Dup_detect.result option;
      (** whole-warehouse duplicates, clusters rebuilt over the merged
          links; [None] when the dup phase was skipped or failed *)
  audit : audit;
  changed_kinds : Link.kind list;
      (** link kinds whose merged set actually changed — what typed
          cache invalidation bumps *)
}

val relink :
  cfg:Config.t ->
  pool:Aladin_par.Pool.t ->
  profiles:Profile_list.t ->
  source_order:string list ->
  store:Pair_store.t ->
  changed:string ->
  unit ->
  outcome
(** [source_order] is the warehouse catalog order with [changed] last
    (an updated source moves to the end). The store is mutated in place.

    Nothing either phase builds outlives the call, so a relink after
    {!Warehouse.load_dir} does the same work as one in a long-lived
    process. The seq pass ({!Aladin_links.Seq_links.discover_source})
    indexes only the changed source's sequences and probes that index
    with every other source's; the changed sequence is each alignment's
    query, so a tied-length pair is normalized by the later source in
    [source_order], as in a cold integration in that order. The
    duplicate phase prepares each source once
    ({!Aladin_dup.Dup_detect.prep_source}, under its current
    exclude-attribute set) and reuses that preparation in every dirty
    pair of this relink. *)
