(** Object-level links between primary objects (§4.4, §4.5).

    Links are stored on the object level in the metadata repository "to
    avoid repeated discovery and computation at query time". *)

type kind =
  | Xref  (** explicit cross-reference found in the data *)
  | Seq_similarity  (** sequence homology *)
  | Text_similarity  (** similar description text *)
  | Shared_term  (** both objects reference the same third object *)
  | Entity_mention  (** one object's text mentions the other's name *)
  | Duplicate  (** same real-world object (step 5) *)

val kinds : kind list
(** Every kind, in declaration order. *)

val kind_name : kind -> string

val kind_rank : kind -> int
(** Dense index in [0, 5], in declaration order; the sort key for
    {!dedup}'s deterministic output and a direct array index for
    per-kind counters. *)

type t = {
  src : Objref.t;
  dst : Objref.t;
  kind : kind;
  confidence : float;  (** in (0, 1] *)
  evidence : string;  (** human-readable provenance of the guess *)
}

val make :
  src:Objref.t -> dst:Objref.t -> kind:kind -> confidence:float -> evidence:string -> t

val normalized : t -> t
(** Symmetric kinds (everything but [Xref]) are canonicalized so that
    [src <= dst]; dedup relies on this. *)

val dedup : t list -> t list
(** Normalize, then keep one link per endpoints and kind: the one of
    highest confidence, then of smallest evidence. The output is
    strictly increasing by [src], then [dst] (each by {!Objref.compare},
    relation included), then {!kind_rank}; two links are the same link
    when that order finds them equal. So the output is a function of the
    input multiset alone. *)

val union : t list list -> t list
(** [union ls = dedup (List.concat ls)], by merging. A list already in
    [dedup]'s form (normalized and strictly increasing, checked in one
    pass) is merged as it is; any other list is deduplicated first. Two
    equal links from different lists resolve as in [dedup]. Linear in
    the links times the logarithm of the number of lists when every list
    is in form, which is what the pair store holds. *)

val pp : Format.formatter -> t -> unit
