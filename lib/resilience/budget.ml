module Clock = Aladin_obs.Clock

exception Expired of string * float

type slot = { step : string; budget : float; deadline : float }

(* one active pool-scoped budget, visible to every domain of a fan-out *)
let current : slot option Atomic.t = Atomic.make None

(* domain-scoped budgets: one per domain, so concurrent pool tasks (e.g.
   the request handlers of lib/serve) can each run under their own
   deadline without clobbering the others. A ref inside DLS keeps
   install/restore allocation-free on the hot path. *)
let local : slot option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let tightest () =
  match (!(Domain.DLS.get local), Atomic.get current) with
  | None, g -> g
  | l, None -> l
  | (Some ls as l), (Some gs as g) -> if ls.deadline <= gs.deadline then l else g

(* clamped at zero: an expired budget has nothing left, it is not in
   debt — callers feed this into Retry-After headers and backoff caps *)
let remaining () =
  Option.map
    (fun s -> Float.max 0.0 (s.deadline -. Clock.now ()))
    (tightest ())

let check () =
  match tightest () with
  | Some s when Clock.now () > s.deadline -> raise (Expired (s.step, s.budget))
  | Some _ | None -> ()

let with_budget ?(scope = `Pool) ~step seconds f =
  let deadline =
    if seconds <= 0.0 then Float.neg_infinity else Clock.now () +. seconds
  in
  let slot = Some { step; budget = seconds; deadline } in
  match scope with
  | `Pool ->
      let prev = Atomic.get current in
      Atomic.set current slot;
      Fun.protect
        ~finally:(fun () -> Atomic.set current prev)
        (fun () ->
          check ();
          f ())
  | `Domain ->
      let cell = Domain.DLS.get local in
      let prev = !cell in
      cell := slot;
      Fun.protect
        ~finally:(fun () -> cell := prev)
        (fun () ->
          check ();
          f ())
