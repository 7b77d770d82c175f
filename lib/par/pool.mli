(** Fixed-size domain pool for the embarrassingly parallel candidate loops
    of the pipeline (inclusion-dependency inference, xref scans, homology
    search, duplicate similarity).

    {b Determinism contract.} [parallel_map pool f xs] returns exactly
    [List.map f xs] for any pool size, provided [f] is pure up to ambient
    trace recording: items are claimed dynamically by whichever domain is
    free, but results are assembled by input index.

    {b Context.} Each participant of a fan-out runs its items under the
    caller's context. When the caller has an ambient
    {!Aladin_obs.Trace}, each participant records into a fresh child
    trace inside a [par.worker] span (attrs [worker] and [items]). After
    the join, the child of every participant that claimed an item is
    merged into the caller's trace: its [par.worker] span lands under
    the caller's innermost open span, which gets a [par.domains] attr.
    Counter totals are therefore independent of the schedule (histogram
    float sums may differ in the last bit because float addition is not
    associative); which participant claims which items is not. Each
    participant also runs under the caller's
    {!Aladin_resilience.Budget} deadline, and every item polls it, so an
    expired step budget stops the fan-out at the next item on every
    domain.

    {b Domain-safety contract.} [f] must not mutate shared state: every
    table it touches must be read-only during the fan-out (see the
    "Parallel execution" section of DESIGN.md). Ambient trace calls are the
    one sanctioned effect.

    A pool of size [n] uses the calling domain plus [n - 1] spawned worker
    domains; size <= 1 means no domains are ever spawned and every call
    degrades to the plain sequential [List] functions. Pools are the only
    place in the codebase allowed to call [Domain.spawn] / [Mutex.create]
    (enforced by scripts/check.sh). *)

type t

val create : ?domains:int -> unit -> t
(** A pool running on [domains] domains in total ([<= 1] = sequential; the
    calling domain is one of them, so [domains - 1] workers are spawned).
    [domains] defaults to the [ALADIN_DOMAINS] environment variable when
    set (a positive integer), else [Domain.recommended_domain_count ()]
    ([Invalid_argument] when [ALADIN_DOMAINS] is set but unparsable).
    Created pools are shut down automatically at exit. *)

val get : ?domains:int -> unit -> t
(** A shared pool of the given size ([0] or unset = the default of
    {!create});
    pools are cached per size, so repeated calls do not spawn new
    domains. This is what {!Aladin.Config}-driven callers use. *)

val size : t -> int
(** Total domains participating in a fan-out, including the caller. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f xs], fanned out over [pool] when one is given and
    sequential otherwise; the result keeps the input order either way. *)

val filter_map : ?pool:t -> ('a -> 'b option) -> 'a list -> 'b list

val shutdown : t -> unit
(** Join the pool's worker domains. Idempotent; runs automatically for
    every created pool via [at_exit]. Using a pool after [shutdown] falls
    back to sequential execution. *)
