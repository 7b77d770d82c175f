let protect ~step ?budget f =
  let body () =
    match budget with
    | Some b -> Budget.with_budget ~step b f
    | None -> f ()
  in
  match body () with
  | v -> Ok v
  | exception Budget.Expired (_, b) -> Error (Run_report.Timeout b)
  (* crash simulation and resource exhaustion must not be absorbed into
     a typed outcome: an injected kill has to behave like a real kill
     (the process dies, the journal decides what survived), and there is
     no meaningful "continue degraded" after the stack or heap is gone *)
  | exception (Aladin_store.Fault.Killed as e) -> raise e
  | exception (Stack_overflow as e) -> raise e
  | exception (Out_of_memory as e) -> raise e
  | exception e -> Error (Run_report.Crashed (Printexc.to_string e))

let status_of = function
  | Ok _ -> "ok"
  | Error (Run_report.Timeout _) -> "timeout"
  | Error (Run_report.Crashed _) -> "failed"

let bounded ~name ?budget f =
  Aladin_obs.Trace.ambient_span_timed name (fun () ->
      let res = protect ~step:name ?budget f in
      Aladin_obs.Trace.ambient_add_attr "status" (status_of res);
      res)

let skipped_for_zero ~name = function
  | Some b when b <= 0.0 ->
      Aladin_obs.Trace.ambient_span name
        ~attrs:[ ("status", "skipped") ]
        (fun () -> ());
      Some (Run_report.step name (Run_report.Skipped Run_report.Budget_zero))
  | Some _ | None -> None

let optional ~name ~budget f =
  match skipped_for_zero ~name budget with
  | Some report -> (None, report)
  | None -> (
      let res, seconds = bounded ~name ?budget f in
      let step = Run_report.step ~seconds name in
      match res with
      | Ok v -> (Some v, step Run_report.Ok)
      | Error (Run_report.Timeout b) ->
          (None, step (Run_report.Skipped (Run_report.Budget_exhausted b)))
      | Error (Run_report.Crashed _ as e) -> (None, step (Run_report.Failed e)))
