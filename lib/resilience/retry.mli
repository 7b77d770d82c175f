(** Bounded retries with deterministic exponential backoff.

    Applied at pipeline step boundaries and importer I/O: a {e
    transient} failure (interrupted or contended I/O) is retried up to
    [attempts] times with exponentially growing, deterministically
    jittered delays; a {e permanent} failure (parse errors, missing
    files, logic bugs) is re-raised immediately — retrying a
    deterministic failure only burns budget reproducing it.

    Determinism: the jitter is a seeded hash of
    [(policy.seed, step, attempt)], not [Random], so a replayed run
    backs off identically. Budget safety: a delay is clamped to
    {!Budget.remaining}, and {!Budget.Expired} is never retried —
    retries cannot manufacture wall-clock a budget no longer has.
    {!Aladin_store.Fault.Killed}, [Stack_overflow] and [Out_of_memory]
    are likewise re-raised untouched (crash simulation must crash).

    {!sleepf} is the only sanctioned sleep in the tree —
    [scripts/check.sh] grep-gates raw [Unix.sleep]/[Unix.sleepf]
    everywhere else. *)

type policy = {
  attempts : int;  (** total attempts, including the first; min 1 *)
  base_delay : float;  (** seconds before the first retry, pre-jitter *)
  multiplier : float;  (** exponential growth per attempt *)
  max_delay : float;  (** cap on the pre-jitter delay *)
  jitter : float;  (** symmetric fraction of the delay, [0..1] *)
  seed : int;  (** jitter hash seed *)
}

type verdict = Transient | Permanent

val backoff_delay : policy -> step:string -> attempt:int -> float
(** Delay (seconds) before retrying [attempt] (0-based): [min max_delay
    (base_delay * multiplier^attempt)], jittered deterministically by
    [(seed, step, attempt)]. Pure. *)

val sleepf : float -> unit
(** EINTR-tolerant sleep; no-op for [<= 0]. The one blessed sleep. *)

val run :
  ?policy:policy -> ?classify:(exn -> verdict) -> step:string ->
  (unit -> 'a) -> 'a
(** Run [f], retrying transient failures per [policy]; re-raises the
    last exception when attempts are exhausted, the failure is
    permanent, or it is one of the pass-through exceptions above. *)

val run_counted :
  ?policy:policy -> ?classify:(exn -> verdict) -> step:string ->
  (unit -> 'a) -> 'a * int
(** {!run}, also returning how many attempts were made (1 = first try
    succeeded) — for trace attributes. *)
