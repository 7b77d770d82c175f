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
(** Reject by the link's identity: each endpoint's source, relation and
    accession, and the kind — what {!Link.dedup} tells links apart by
    (symmetric for symmetric kinds). *)

val filter_links : t -> Link.t list -> Link.t list
(** The links not rejected, in their order. With no link rejected, the
    list itself, unread. *)

val filter_fks : t -> source:string -> Inclusion.fk list -> Inclusion.fk list

val save : t -> string
(** Deterministic (sorted) rendering — a pure function of the rejection
    set, so snapshot re-saves are byte-identical. A rejected link is a
    [link] record of 7 fields: the normalized endpoints' source,
    relation and accession, then the kind. *)

val load_salvaging : string -> t * int
(** Inverse of {!save}, tolerant of storage-salvaged documents: a lost
    header and malformed lines are skipped and counted. Returns the
    feedback plus the number of lines dropped. A [link] record of 3
    fields, as stores written before the 7-field form hold (the
    endpoints rendered as [source:accession], then the kind), still
    hides every link whose normalized endpoints render alike under that
    kind, and {!save} writes it back as it was read. *)
