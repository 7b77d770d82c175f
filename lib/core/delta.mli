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

    Every phase commits through one rule: it owns some link kinds, and
    in each pair it rewrites, its fresh links replace exactly the
    pair's links of those kinds. The xref pass (Xref, with the
    correspondences), the seq pass (Seq_similarity) and the text pass
    (Text_similarity, Entity_mention) rewrite the recomputed pairs; the
    onto pass (Shared_term) rewrites every pair the store holds and
    every pair its links name, creating an entry where none exists; the
    dup phase (Duplicate, with the candidate count) rewrites the dirty
    pairs.

    Each step and pass runs in its own error boundary under its budget
    key ({!Config.budgets}): a pass that is disabled, budget-zero, over
    budget or crashed commits no links, so the pairs it rewrites lose
    its kinds (just as a from-scratch run would), while reused pairs
    keep theirs; the run report's ["link discovery"] step lists one
    child per pass (xref, seq, text, onto). *)

open Aladin_links
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
  links : Link.t list;
      (** the store's merged links ({!Pair_store.all_links}, before
          feedback filtering), computed once per relink: the warehouse
          derives its link view, duplicates included, from it *)
  audit : audit;
  changed_kinds : Link.kind list;
      (** link kinds whose links changed in some pair, compared pair by
          pair before and after the relink — what typed cache
          invalidation bumps *)
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
    [source_order], as in a cold integration in that order. The text
    pass ({!Aladin_links.Text_links.discover_source}) runs once: it
    builds and splits every source's documents once and derives each of
    the changed source's pairs from them, scoring only cross-source
    candidates. The duplicate phase
    prepares each source once ({!Aladin_dup.Dup_detect.prep_source},
    under its current exclude-attribute set) and reuses that preparation
    in every dirty pair of this relink; the preparations go with the
    call. The store is merged once at the end ([links]). *)
