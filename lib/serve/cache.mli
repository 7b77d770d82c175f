(** LRU result cache for the serving layer.

    Single-domain by design: the server's accept loop is the only
    mutator (cache lookups and stores never happen inside a pool
    fan-out), so no locking is needed. Keys are normalized request
    targets prefixed with the engine's typed cache key over the data
    the route reads ({!Aladin.Engine.key}), which is what makes
    invalidation explicit {e and} selective — updating a source orphans
    exactly the entries whose key named it (or the whole warehouse),
    while entries over unrelated sources keep serving hits, and LRU
    eviction reclaims the orphans. An entry never goes stale, so none
    expires.

    Values are opaque here; {!Service} stores each response rendered
    once (the wire bytes of its hit variant), so a hit hands back the
    very string the server writes.

    Recency is tracked with a lazy-deletion queue: every touch enqueues
    a fresh (key, sequence) ticket and eviction pops tickets until one
    is current, giving O(1) amortized updates with bounded garbage. *)

type 'v t

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** LRU capacity evictions *)
  size : int;
  capacity : int;
}

val create : capacity:int -> unit -> 'v t
(** [capacity <= 0] disables the cache (every lookup misses, nothing is
    stored). *)

val find : 'v t -> string -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or replace, evicting least-recently-used entries over
    capacity. *)

val stats : 'v t -> stats
