(** Typed invalidation surface for warehouse-derived caches.

    A warehouse carries one {!t}: a whole-warehouse counter plus one
    counter per source and per link kind. Every mutation bumps exactly
    the counters it can affect — adding or updating source [s] bumps
    [Source s] (and the kinds whose merged link sets actually changed),
    rejecting a link bumps its kind, and everything bumps [Whole]
    (global structures — the search index, the browser, bare-table
    resolution — can change under any mutation).

    A cache derives its key from the {e dependencies} the cached
    computation actually reads ({!key}): a route that only queries
    [uniprot.entry] keys on [Source "uniprot"], so an update to an
    unrelated source leaves its cached entry valid, while a route over
    global state keys on [Whole] and invalidates on every mutation. *)

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
(** Also bumps [Whole]. *)

val get : t -> dep -> int
(** Untracked sources/kinds read 0. *)

val key : t -> dep list -> string
(** Canonical cache-key fragment over the given dependencies: deps are
    sorted and deduplicated, so the key is independent of the order the
    route listed them in. Equal keys guarantee none of the listed
    dependencies was bumped in between. *)
