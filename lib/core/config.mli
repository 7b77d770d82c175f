(** All tunables of the ALADIN pipeline in one place. *)

open Aladin_discovery
open Aladin_links
open Aladin_dup

type budgets = {
  import : float option;
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
    with a recorded reason in the {!Aladin_resilience.Run_report}. *)

val no_budgets : budgets

type t = {
  accession : Accession.params;
  inclusion : Inclusion.params;
  linker : Linker.params;
  dup : Dup_detect.params;
  incremental_seq : bool;
      (** the seq pass indexes only the changed source's sequences and
          probes them with every other source's
          ({!Aladin_links.Seq_links.discover_source}, default true); false
          runs batch all-pairs discovery on each recomputed source pair
          ({!Aladin_links.Seq_links.discover_between}) *)
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

val of_string : string -> (t, string) result
(** Parse a [key = value] configuration ([#] comments, blank lines ok) over
    {!default}. Keys:
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
    incremental_seq                 bool
    max_path_len                    int
    change_threshold                float
    domains                         int
    budget.import                   seconds | none
    budget.primary                  seconds | none
    budget.secondary                seconds | none
    budget.links                    seconds | none
    budget.links.xref|seq|text|onto seconds | none
    budget.dups                     seconds | none
    v}
    [Error] messages carry the 1-based line number
    (["line 3: unknown key ..."]); never raises. *)

val of_file : string -> (t, string) result
(** Like {!of_string}; errors are prefixed ["<path>:<line>: ..."] and an
    unreadable file is an [Error], not an exception. *)

val to_string : t -> string
(** Render every supported key with its current value ([of_string]-parsable). *)
