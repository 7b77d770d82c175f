(** Typed per-run reports: what each pipeline step did, how long it
    took, and how (if at all) it degraded.

    This is the paper's "almost" made explicit: the pipeline is allowed
    to skip an optional pass, tolerate bad records, or quarantine a
    source that cannot be analyzed — but every such decision is recorded
    here, persisted in the metadata repository next to the execution
    trace, and rendered by the CLI. A report replaces the bare timing
    list that [Warehouse.add_source] used to return. *)

type warning = { code : string; detail : string }
(** One recoverable incident inside an otherwise successful step, e.g.
    [{ code = "record_error"; detail = "record 12: ..." }]. *)

type reason =
  | Budget_zero  (** configured budget of 0 — skipped before starting *)
  | Budget_exhausted of float  (** ran, hit the wall-clock budget *)
  | Disabled  (** turned off in the configuration *)
  | Dependency_failed of string  (** an earlier required step failed *)

type error =
  | Timeout of float  (** required work exceeded its budget (seconds) *)
  | Crashed of string  (** uncaught exception, printed *)

type outcome =
  | Ok
  | Degraded of warning list  (** finished, but lost something on the way *)
  | Skipped of reason
  | Failed of error

type step_report = {
  step : string;  (** pipeline step or pass name, matches the span name *)
  outcome : outcome;
  seconds : float;
  resumed : bool;
      (** this outcome was restored from a journal checkpoint by
          [integrate --resume], not computed in this run — its [seconds]
          are the original run's *)
  children : step_report list;  (** sub-passes, e.g. the four link passes *)
}

type t = {
  source : string;
  steps : step_report list;  (** the five steps, in pipeline order *)
  quarantined : bool;
      (** true when the source was rolled back out of the warehouse
          because a required step failed *)
}

val step :
  ?children:step_report list -> ?seconds:float -> string -> outcome -> step_report
(** A step that ran in this process: not [resumed] ({!mark_resumed}
    flags the steps a resume restored). *)

val mark_resumed : t -> t
(** Flag every step (recursively) as restored-from-checkpoint — applied
    to the reports a journaled integration restores from its store. *)

val outcome_name : outcome -> string
(** ["ok" | "degraded" | "skipped" | "failed"]. *)

val reason_to_string : reason -> string

val error_to_string : error -> string

val outcome_clean : outcome -> bool
(** [Ok] and [Skipped Disabled] are clean; everything else degrades the
    run. *)

val is_clean : t -> bool
(** No quarantine and every step (recursively) clean — the predicate
    behind [integrate --strict]. *)

val find : t -> string -> step_report option
(** Depth-first search by step name. *)

val total_seconds : t -> float
(** Sum over the top-level steps. *)

val render : t -> string
(** Multi-line human-readable rendering for the CLI. *)

val serialize : t -> string
(** Stable text encoding (round-trips through {!deserialize}); safe to
    embed as a single metadata-repository field. *)

val deserialize : string -> t option
