(** Error boundaries around pipeline steps.

    [protect] is how the warehouse keeps one failing step from killing
    the whole run: every exception the step raises — including a
    {!Budget.Expired} from the cooperative-cancellation machinery — is
    captured as a typed {!Run_report.error} instead of propagating. The
    caller decides what the error means (quarantine the source, skip the
    pass, continue degraded) and records the decision in the run
    report. *)

val protect :
  ?scope:[ `Pool | `Domain ] ->
  step:string ->
  ?budget:float ->
  (unit -> 'a) ->
  ('a, Run_report.error) result
(** Run the body inside an error boundary.

    With [budget] (seconds), the body runs under
    {!Budget.with_budget} (in the given [scope], default [`Pool]); a
    budget [<= 0] expires before the body does any work. Budget expiry
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

val skipped_span : string -> unit
(** A marker span [name] with status ["skipped"], for a step skipped
    before doing any work. *)

val to_step :
  seconds:float ->
  string ->
  ('a, Run_report.error) result ->
  'a option * Run_report.step_report
(** The report of an optional step from its {!bounded} result: [Ok]
    keeps the value; a [Timeout] is [Skipped (Budget_exhausted _)] and
    a crash is [Failed], both without a value. *)
