(** Typed invalidation surface for warehouse-derived caches.

    A warehouse carries one {!t}: a whole-warehouse counter plus one
    counter per source and per link kind. Every mutation bumps exactly
    the counters it can affect. Adding or updating source [s] bumps
    [Source s] and [Whole] (the search index, the browser's rows and
    bare-table resolution read every source), and the kinds whose merged
    link sets actually changed. Rejecting a link bumps its kind alone:
    no source's rows or profile changes.

    A cache derives its key from the {e dependencies} the cached
    computation actually reads ({!key}): a route that only queries
    [uniprot.entry] keys on [Source "uniprot"], so an update to an
    unrelated source leaves its cached entry valid; a route over the
    sources' global state keys on [Whole]; and a route that reads links
    keys on the kind of every link it reads. *)

type t

type dep =
  | Whole  (** any warehouse state at all (global indexes, bare tables) *)
  | Source of string  (** the named source's rows and schema *)
  | Link_kind of string  (** the merged link set of one {!Aladin_links.Link.kind_name} *)

val create : unit -> t
(** All counters at 0. *)

val bump_whole : t -> unit

val bump_source : t -> string -> unit
(** Also bumps [Whole]. *)

val bump_kind : t -> string -> unit
(** Bumps that kind's counter only. *)

val get : t -> dep -> int
(** Untracked sources/kinds read 0. *)

val key : t -> dep list -> string
(** Canonical cache-key fragment over the given dependencies: deps are
    sorted and deduplicated, so the key is independent of the order the
    route listed them in. Equal keys guarantee none of the listed
    dependencies was bumped in between. *)
