(** User feedback on discovered structure (§6.2).

    "Users browsing the data or query results from ALADIN might indicate
    that a link between two objects or even between two schema elements was
    inserted incorrectly. Thus, especially false links between relations
    can be removed quickly."

    Feedback is a persistent set of rejections consulted by the pipeline:
    rejected object links never reappear from re-discovery, and rejected
    foreign keys are filtered out of inference when the source is
    re-analyzed. *)

open Aladin_discovery
open Aladin_links

type t

val create : unit -> t

val reject_link : t -> Link.t -> unit
(** Reject by endpoints + kind (symmetric for symmetric kinds). *)

val filter_links : t -> Link.t list -> Link.t list
(** The links not rejected, in their order. With no link rejected, the
    list itself, unread. *)

val filter_fks : t -> source:string -> Inclusion.fk list -> Inclusion.fk list

val save : t -> string
(** Deterministic (sorted) rendering — a pure function of the rejection
    set, so snapshot re-saves are byte-identical. *)

val load_salvaging : string -> t * int
(** Inverse of {!save}, tolerant of storage-salvaged documents: a lost
    header and malformed lines are skipped and counted. Returns the
    feedback plus the number of lines dropped. *)
