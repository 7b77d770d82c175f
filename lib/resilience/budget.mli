(** Cooperative wall-clock budgets for pipeline steps.

    A budget is a deadline installed for the dynamic extent of one step.
    Long-running code — in particular every item of an
    [Aladin_par.Pool] fan-out — polls {!check}; once the deadline has
    passed, {!Expired} is raised and rides the normal exception path out
    of the step, where an error boundary ({!Boundary.protect}) turns it
    into a typed outcome.

    A deadline lives in one domain-local slot, so concurrent pool tasks
    — e.g. the per-request deadlines of [lib/serve], where every worker
    handles a different request — each run under their own without
    clobbering the others. A pool participant inherits its caller's
    deadline for the batch ({!current} on the caller, {!with_deadline}
    on the participant), so a pipeline step's budget reaches every item
    of its fan-outs.

    Budgets do not nest: installing one while another is active shadows
    the outer one until the inner step returns (the outer deadline is
    restored afterwards). *)

exception Expired of string * float
(** [Expired (step, budget_seconds)]: the named step exceeded its
    wall-clock budget. *)

val with_budget : step:string -> float -> (unit -> 'a) -> 'a
(** Run the body under a deadline of [seconds] from now on the
    {!Aladin_obs.Clock} wall clock. A budget [<= 0] expires immediately
    (before the body runs any work item). The calling domain's previous
    deadline, if any, is restored when the body returns or raises.
    @raise Expired when the budget is already exhausted on entry. *)

val check : unit -> unit
(** Poll the calling domain's deadline; a cheap no-op when none is
    installed.
    @raise Expired when the deadline has passed. *)

val remaining : unit -> float option
(** Seconds until the calling domain's deadline, clamped at [0.0] once
    expired (never negative); [None] when no budget is installed. *)

(** {2 Handing a deadline to another domain} *)

type deadline
(** An installed budget: its step, its seconds and when it expires. *)

val current : unit -> deadline option
(** The calling domain's deadline; [None] when no budget is installed. *)

val with_deadline : deadline option -> (unit -> 'a) -> 'a
(** Run the body under [d], a deadline {!current} read on the domain
    that handed the work over, restoring the calling domain's previous
    deadline after. Installing writes the domain's slot in place. *)
