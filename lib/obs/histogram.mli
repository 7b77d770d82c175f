(** A latency histogram with fixed log-scale buckets (seconds): one per
    decade from 1 µs to 100 s, then an overflow bucket.

    Cheap enough to sit on a hot path: one array index per observation,
    no allocation. Summaries (count / sum / min / max / mean and the
    cumulative-style bucket counts) are exported by {!Sink}. *)

type t

val create : unit -> t

val observe : t -> float -> unit

val count : t -> int

val sum : t -> float

val min_value : t -> float
(** 0.0 when empty. *)

val max_value : t -> float
(** 0.0 when empty. *)

val mean : t -> float
(** 0.0 when empty. *)

val buckets : t -> (float * int) list
(** (upper bound, observations <= bound and > previous bound); the final
    entry has bound [infinity]. Bucket counts sum to {!count}. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s observations into [dst]: bucket
    counts and totals add, min/max combine. Used to merge a pool
    participant's child trace into its caller's. [src] is left
    untouched. *)
