(** Bounded retries with deterministic exponential backoff.

    Applied around importer I/O, the only code that reads files: a {e
    transient} failure (interrupted or contended I/O) is retried, for
    at most 3 attempts in all, with exponentially growing,
    deterministically jittered delays; a {e permanent} failure (parse
    errors, missing files, logic bugs) is re-raised immediately —
    retrying a deterministic failure only burns budget reproducing it.

    Determinism: the jitter is a seeded hash of [(step, attempt)], not
    [Random], so a replayed run backs off identically. Budget safety: a delay is clamped to
    {!Budget.remaining}, and {!Budget.Expired} is never retried —
    retries cannot manufacture wall-clock a budget no longer has.
    {!Aladin_store.Fault.Killed}, [Stack_overflow] and [Out_of_memory]
    are likewise re-raised untouched (crash simulation must crash).

    {!sleepf} is the only sanctioned sleep in the tree —
    [scripts/check.sh] grep-gates raw [Unix.sleep]/[Unix.sleepf]
    everywhere else. *)

val backoff_delay : step:string -> attempt:int -> float
(** Delay (seconds) before retrying [attempt] (0-based): [min 0.25
    (0.005 * 2^attempt)], jittered deterministically by [(step, attempt)]
    by up to 25% either way. Pure. *)

val sleepf : float -> unit
(** EINTR-tolerant sleep; no-op for [<= 0]. The one blessed sleep. *)

val run : step:string -> (unit -> 'a) -> 'a
(** Run [f], retrying transient failures; re-raises the last exception
    when attempts are exhausted, the failure is permanent, or it is one
    of the pass-through exceptions above. Transient failures are the
    [Unix_error]s [EINTR], [EAGAIN], [EWOULDBLOCK], [EBUSY], [ENFILE] and
    [EMFILE], and the [Sys_error]s that report the same. *)
