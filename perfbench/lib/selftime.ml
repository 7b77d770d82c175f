(* Self time: a span's duration minus the part of its interval that its
   children cover. Children may overlap each other (the pool's
   per-worker spans run concurrently) and may stick out of the parent;
   only the union of their intervals clipped to the parent counts. *)

module Span = Aladin_obs.Span

(* total length of the union of [(start, finish)] intervals clipped to
   [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, f) ->
        let s = Float.max lo s and f = Float.min hi f in
        if f > s then Some (s, f) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, f) ->
        match cur with
        | None -> (total, Some (s, f))
        | Some (cs, cf) when s <= cf -> (total, Some (cs, Float.max cf f))
        | Some (cs, cf) -> (total +. (cf -. cs), Some (s, f)))
      (0.0, None) clipped
  in
  match last with Some (cs, cf) -> total +. (cf -. cs) | None -> total

let self_time ~start ~finish children =
  Float.max 0.0 ((finish -. start) -. covered ~lo:start ~hi:finish children)

let interval sp = (Span.start sp, Span.finish sp)

let span_self sp =
  self_time ~start:(Span.start sp) ~finish:(Span.finish sp)
    (List.map interval (Span.children sp))

(* [fold f acc roots] visits every span of the forest, parents before
   children, with its self time. *)
let fold f acc roots =
  let rec go acc sp =
    let acc = f acc sp (span_self sp) in
    List.fold_left go acc (Span.children sp)
  in
  List.fold_left go acc roots

(* The wall time of a call that is not inside any of the named step
   spans it ran: the journal and bookkeeping residuals. *)
let residual ~wall:(start, finish) steps = self_time ~start ~finish steps
