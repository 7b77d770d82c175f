(** Trace export: a human-readable tree and a self-contained JSON document.

    JSON schema (all times in seconds; span starts are relative to the
    trace start so traces diff cleanly across runs):

    {v
    { "trace": string,
      "started_at": float,          // absolute, Unix epoch
      "duration_s": float,
      "spans": [ { "name": string,
                   "start_s": float,     // relative to trace start
                   "duration_s": float,
                   "attrs": { string: string, ... },
                   "children": [ ...same shape... ] }, ... ],
      "counters": { string: int, ... },
      "histograms": { string: { "count": int, "sum_s": float,
                                "min_s": float, "max_s": float,
                                "mean_s": float,
                                "buckets": [ { "le_s": float|null,
                                               "count": int }, ... ] } } }
    v}

    The final bucket's ["le_s"] is [null] (the overflow bucket). *)

val to_json : Trace.t -> string

val add_json_string : Buffer.t -> string -> unit
(** Append a string as a JSON string literal, quotes included: double
    quotes, backslashes and control bytes escaped, every other byte as
    it is. The tree's one JSON string escaper; the serve layer's JSON
    bodies go through it too. *)

val write_json : Trace.t -> string -> unit
(** [write_json trace path]. *)

val pretty : Trace.t -> string
(** Indented span tree with durations and attrs, then counters and
    histogram summaries. *)
