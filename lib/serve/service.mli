(** The serving compute layer: routes HTTP requests onto the
    {!Aladin.Engine} facade, with an LRU response cache and
    pool-parallel batch evaluation.

    Separated from {!Server} (which owns sockets, admission and drain)
    so the cached hot path can be exercised — and benchmarked — without
    any I/O. All shared mutable state (cache, metrics) is touched only
    by the calling domain; the per-request work fanned out on the pool
    is pure engine reads, honouring {!Aladin_par.Pool}'s domain-safety
    contract. Responses are deterministic: for a fixed engine cache key
    ({!Aladin.Engine.key} over the data the route reads), equal requests
    produce byte-identical bodies at any pool size, cached or not (the
    [x-cache] header is the only difference).

    A cache entry keeps its response rendered: the wire bytes of its hit
    variant ([x-cache: hit]), made once on the pool domain that computed
    the miss. {!render_batch} hands a hit out as those very bytes, so the
    server writes it without rendering or copying anything; {!handle}
    slices the body back out of them.

    Routes: [/healthz], [/metrics], [/search?q=&source=&field=&limit=],
    [/object/SOURCE/ACCESSION] (or [/object?accession=&source=]),
    [/resolve?accession=], [/query?sql=], [/links?kind=], and — only
    with [debug_endpoints] — [/slow?seconds=] (a deadline-polling
    sleeper for overload and drain testing).

    A cached response is keyed on what its route reads: [/search],
    [/resolve] and a [/query] over a bare table on [Whole]; a [/query]
    over [source.table]s on those sources; [/links?kind=k] on kind [k]
    and a bare [/links] on every kind; [/object] on [Whole] (its rows)
    and every kind (its links and their conflicts). A link rejection
    therefore keeps every [/search] and [/resolve] entry.

    Each request runs under its own {!Aladin_resilience.Budget} of
    [request_budget] seconds, installed on the domain that handles it,
    inside an error boundary: deadline expiry maps to [503] with [Retry-After],
    a crash to [500]; the boundary never kills the batch. *)

type config = {
  cache_capacity : int;  (** response-cache entries; [<= 0] disables *)
  request_budget : float option;  (** per-request deadline, seconds *)
  debug_endpoints : bool;  (** expose [/slow] *)
}

val default_config : config
(** 512 entries, 5 s request budget, no debug endpoints. *)

type t

val create : ?pool:Aladin_par.Pool.t -> ?config:config -> Aladin.Engine.t -> t

val handle : t -> Http.request -> Http.response
(** One request through the cached path, as a response. *)

val render_batch : t -> Http.request list -> string list
(** A batch of requests answered together, the misses fanned out over the
    pool, each response as its wire bytes: a hit is its cache entry's
    stored string itself (no copy), a miss is {!Http.render}ed once. Byte
    for byte [Http.render] of what {!handle} answers. *)

val cache_stats : t -> Cache.stats

val metrics_text : ?extra:(string * float) list -> t -> string
(** Prometheus-style text: per-route request counts and latency
    histograms (with estimated p50/p95/p99), cache and error counters,
    the warehouse's [Whole] generation counter, plus any [extra] gauges (the server adds queue
    depth and admission counters). *)
