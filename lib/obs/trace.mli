(** The trace collector: a tree of {!Span}s plus named counters and
    {!Histogram}s for one pipeline run. A counter is a monotonically
    increasing event count (pairs considered, pairs pruned, candidates
    accepted, ...), created at its first increment and exported by
    {!Sink}.

    Two usage styles:

    - {b explicit}: the orchestrator (the warehouse, the CLI, the bench
      harness) holds a [Trace.t] and wraps each step in {!with_span};
    - {b ambient}: deep library code (link passes, FK inference) records
      into whatever trace the orchestrator installed with {!with_ambient}.
      Every [ambient_*] function is a no-op when no trace is installed, so
      instrumented code pays nothing outside a traced run.

    The ambient trace lives in one domain-local slot, so each domain
    records into its own. During a parallel fan-out, [Aladin_par.Pool]
    installs a fresh child trace as every participant's ambient trace
    and {!merge}s the children into the caller's trace once the fan-out
    joins, so traces stay exact under parallelism. Span recording is
    exception-safe: a raising body still closes its span. *)

type t

val create : ?name:string -> unit -> t
(** Default name ["trace"]. *)

val name : t -> string

val started_at : t -> float

(** {2 Spans} *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the body inside a new span; nests under the innermost open span,
    or becomes a root span. *)

val add_attr : t -> string -> string -> unit
(** Attach to the innermost open span; no-op when none is open. *)

val roots : t -> Span.t list
(** Completed top-level spans, in completion order. *)

val duration : t -> float
(** Latest root-span finish minus {!started_at}; 0 with no roots. *)

val attach_span : t -> Span.t -> unit
(** Attach an externally built (closed) span as a child of the innermost
    open span, or as a root when none is open. *)

(** {2 Metrics} *)

val incr : t -> ?by:int -> string -> unit

val counter_value : t -> string -> int
(** 0 for a name never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val histograms : t -> (string * Histogram.t) list
(** Sorted by name. *)

(** {2 Child traces} *)

val merge : t -> t -> unit
(** [merge t child] folds [child]'s counters and histograms into [t] and
    attaches [child]'s root spans with {!attach_span}. Counter sums are
    exact; histogram float sums may differ from a sequential run in the
    last bit. [child] is left as it is; merge each child once. *)

(** {2 Ambient trace} *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's ambient trace for the body
    (restoring the previous one after, so traced regions nest). *)

val ambient : unit -> t option
(** The calling domain's ambient trace. *)

val ambient_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** {!with_span} on the ambient trace; just runs the body when none. *)

val ambient_span_timed :
  ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a * float
(** Like {!ambient_span} but always returns the wall-clock duration, with
    or without an ambient trace. *)

val ambient_add_attr : string -> string -> unit
(** {!add_attr} on the innermost open span of the ambient trace; no-op
    when none is installed. Used to stamp a span with its resilience
    [status] ("ok", "skipped", "failed", ...) after the body ran. *)

val ambient_incr : ?by:int -> string -> unit

val ambient_observe : string -> float -> unit
