(** Error boundaries around pipeline steps.

    [protect] is how the warehouse keeps one failing step from killing
    the whole run: every exception the step raises — including a
    {!Budget.Expired} from the cooperative-cancellation machinery — is
    captured as a typed {!Run_report.error} instead of propagating. The
    caller decides what the error means (quarantine the source, skip the
    pass, continue degraded) and records the decision in the run
    report. *)

val protect :
  step:string ->
  ?budget:float ->
  (unit -> 'a) ->
  ('a, Run_report.error) result
(** Run the body inside an error boundary.

    With [budget] (seconds), the body runs under
    {!Budget.with_budget} on the calling domain (and on every domain it
    fans out to); a budget [<= 0] expires before the body does any
    work. Budget expiry
    maps to [Error (Timeout budget)]; any other exception maps to
    [Error (Crashed msg)] with the printed exception.

    Three exceptions pass through instead of being captured:
    [Aladin_store.Fault.Killed] (an injected crash must behave like a
    real one — kill the run, let the journal arbitrate), and
    [Stack_overflow] / [Out_of_memory] (resource exhaustion leaves no
    sane state to continue from). Apart from those, the boundary never
    raises. *)

(** {2 Pipeline steps}

    The warehouse's steps and the delta pipeline's passes share these,
    so a span, its ["status"] attribute and an optional step's report
    mean the same thing for every step. *)

val bounded :
  name:string ->
  ?budget:float ->
  (unit -> 'a) ->
  ('a, Run_report.error) result * float
(** {!protect} the body as step [name] inside an ambient span of that
    name, and return the result with the span's wall-clock seconds. The
    span is stamped with the result's status as its ["status"]: [ok],
    [timeout] or [failed]. The body is not retried: the steps read only
    in-memory catalogs, so none of their failures is transient; the
    importers retry their own file reads ({!Retry.run}). *)

val skipped_for_zero :
  name:string -> float option -> Run_report.step_report option
(** The report of step [name] skipped before doing any work, when its
    budget is [<= 0]: [Skipped Budget_zero], with a marker span [name]
    whose ["status"] is ["skipped"]. [None] when the budget lets the
    step run. *)

val optional :
  name:string ->
  budget:float option ->
  (unit -> 'a) ->
  'a option * Run_report.step_report
(** An optional step: {!skipped_for_zero} when its budget is [<= 0],
    else the body run through {!bounded}. [Ok] keeps the value; a
    [Timeout] is [Skipped (Budget_exhausted _)] and a crash is
    [Failed], both without a value. *)
