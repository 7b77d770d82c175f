module Clock = Aladin_obs.Clock

exception Expired of string * float

type deadline = { step : string; budget : float; deadline : float }

(* one slot per domain: the pipeline step's deadline on the orchestrating
   domain, a request's on the serve worker that handles it, and the
   caller's on a pool participant for one batch. A ref inside DLS keeps
   install/restore an allocation-free write on the hot path. *)
let slot : deadline option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get slot)

(* clamped at zero: an expired budget has nothing left, it is not in
   debt — callers feed this into Retry-After headers and backoff caps *)
let remaining () =
  Option.map (fun d -> Float.max 0.0 (d.deadline -. Clock.now ())) (current ())

let check () =
  match current () with
  | Some d when Clock.now () > d.deadline -> raise (Expired (d.step, d.budget))
  | Some _ | None -> ()

let with_deadline d f =
  let cell = Domain.DLS.get slot in
  let prev = !cell in
  cell := d;
  Fun.protect ~finally:(fun () -> cell := prev) f

let with_budget ~step seconds f =
  let deadline =
    if seconds <= 0.0 then Float.neg_infinity else Clock.now () +. seconds
  in
  with_deadline
    (Some { step; budget = seconds; deadline })
    (fun () ->
      check ();
      f ())
