(** All tunables of the ALADIN pipeline in one place. *)

open Aladin_discovery
open Aladin_links
open Aladin_dup

type budgets = {
  primary : float option;
  secondary : float option;
  links : float option;  (** whole link-discovery step *)
  xref_pass : float option;
  seq_pass : float option;  (** the homology pass, the usual runaway *)
  text_pass : float option;
  onto_pass : float option;
  dups : float option;
}
(** Per-step wall-clock budgets in seconds; [None] (the default
    everywhere) means unlimited. A budget of [0] skips the step or pass
    outright. A required step (primary discovery) that exceeds its
    budget quarantines the source; an optional step or pass is skipped
    with a recorded reason in the {!Aladin_resilience.Run_report}.

    Import has no budget: the caller imports before the pipeline runs.
    The [budget.import] key that once parsed into a field nothing read
    is gone, so a config file naming it fails as an unknown key, and
    since a journal's config digest hashes {!to_string}, a journal
    begun with that key in the rendering is refused on resume (as after
    the removal of [incremental_seq]). *)

val no_budgets : budgets

type t = {
  accession : Accession.params;
  inclusion : Inclusion.params;
  linker : Linker.params;
  dup : Dup_detect.params;
  max_path_len : int;  (** secondary-structure path bound *)
  change_threshold : float;
      (** §6.2: fraction of a source's rows that must change before links
          are recomputed (default 0.1) *)
  domains : int;
      (** domain-pool size for the parallel discovery fan-outs; 0 (default)
          = auto: the [ALADIN_DOMAINS] environment variable when set, else
          [Domain.recommended_domain_count ()]. 1 forces sequential. *)
  budgets : budgets;
}

val default : t

val of_file : string -> (t, string) result
(** Parse a [key = value] configuration file ([#] comments, blank lines
    ok) over {!default}. Keys:
    {v
    accession.min_length            int
    accession.max_length_spread     float
    inclusion.min_containment       float
    inclusion.require_name_affinity bool
    links.seq.min_normalized        float
    links.seq.min_seq_len           int
    links.text.min_cosine           float
    links.xref.min_matches          int
    links.enable_seq|text|onto      bool
    dup.min_similarity              float
    dup.all_pairs                   bool
    max_path_len                    int
    change_threshold                float
    domains                         int
    budget.primary                  seconds | none
    budget.secondary                seconds | none
    budget.links                    seconds | none
    budget.links.xref|seq|text|onto seconds | none
    budget.dups                     seconds | none
    v}
    [Error] messages carry the path and the 1-based line number
    (["<path>:3: unknown key ..."]), and an unreadable file is an
    [Error]; never raises. *)

val to_string : t -> string
(** Render every supported key with its current value, one [key = value]
    line each in the order listed above ({!of_file} reads it back). It
    reads the same key table as {!of_file}, so no key is parsed but not
    rendered. A journal's config digest hashes this rendering. *)
