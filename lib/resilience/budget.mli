(** Cooperative wall-clock budgets for pipeline steps.

    A budget is a deadline installed for the dynamic extent of one step.
    Long-running code — in particular every item of an
    [Aladin_par.Pool] fan-out — polls {!check}; once the deadline has
    passed, {!Expired} is raised and rides the normal exception path out
    of the step, where an error boundary ({!Boundary.protect}) turns it
    into a typed outcome.

    Budgets come in two scopes. A [`Pool] budget (the default, and what
    every pipeline step uses) lives in an [Atomic.t] so worker domains
    spawned by the pool observe the same deadline as the domain that
    installed it. A [`Domain] budget lives in domain-local storage: each
    domain carries its own, so concurrent pool tasks — e.g. the
    per-request deadlines of [lib/serve], where every worker handles a
    different request — can each run under an independent deadline
    without clobbering the others. {!check} polls both and raises for
    whichever deadline is tighter.

    Within one scope budgets do not nest: installing one while another
    is active shadows the outer one until the inner step returns (the
    outer deadline is restored afterwards). *)

exception Expired of string * float
(** [Expired (step, budget_seconds)]: the named step exceeded its
    wall-clock budget. *)

val with_budget :
  ?scope:[ `Pool | `Domain ] -> step:string -> float -> (unit -> 'a) -> 'a
(** Run the body under a deadline of [seconds] from now on the
    {!Aladin_obs.Clock} wall clock. A budget [<= 0] expires immediately
    (before the body runs any work item). The previous budget of the
    same scope, if any, is restored when the body returns or raises.
    [scope] defaults to [`Pool] (shared with pool workers); [`Domain]
    keeps the deadline private to the calling domain.
    @raise Expired when the budget is already exhausted on entry. *)

val check : unit -> unit
(** Poll the active budgets (domain-scoped and pool-scoped); a cheap
    no-op when none is installed.
    @raise Expired when an active deadline has passed. *)

val remaining : unit -> float option
(** Seconds until the tightest active deadline, clamped at [0.0] once
    expired (never negative); [None] when no budget is installed. *)
