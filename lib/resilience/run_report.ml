module Serial = Aladin_store.Serial

type warning = { code : string; detail : string }

type reason =
  | Budget_zero
  | Budget_exhausted of float
  | Disabled
  | Dependency_failed of string

type error = Timeout of float | Crashed of string

type outcome = Ok | Degraded of warning list | Skipped of reason | Failed of error

type step_report = {
  step : string;
  outcome : outcome;
  seconds : float;
  resumed : bool;
  children : step_report list;
}

type t = { source : string; steps : step_report list; quarantined : bool }

let step ?(children = []) ?(seconds = 0.0) name outcome =
  { step = name; outcome; seconds; resumed = false; children }

let rec mark_step_resumed s =
  { s with resumed = true; children = List.map mark_step_resumed s.children }

let mark_resumed t = { t with steps = List.map mark_step_resumed t.steps }

let outcome_name = function
  | Ok -> "ok"
  | Degraded _ -> "degraded"
  | Skipped _ -> "skipped"
  | Failed _ -> "failed"

let reason_to_string = function
  | Budget_zero -> "budget is zero"
  | Budget_exhausted b -> Printf.sprintf "budget of %gs exhausted" b
  | Disabled -> "disabled by configuration"
  | Dependency_failed dep -> Printf.sprintf "%s failed" dep

let error_to_string = function
  | Timeout b -> Printf.sprintf "timed out after %gs budget" b
  | Crashed msg -> Printf.sprintf "crashed: %s" msg

let outcome_clean = function
  | Ok | Skipped Disabled -> true
  | Degraded _ | Skipped _ | Failed _ -> false

let rec step_clean s =
  outcome_clean s.outcome && List.for_all step_clean s.children

let is_clean t = (not t.quarantined) && List.for_all step_clean t.steps

let find t name =
  let rec search = function
    | [] -> None
    | s :: rest ->
        if s.step = name then Some s
        else (match search s.children with Some _ as hit -> hit | None -> search rest)
  in
  search t.steps

let total_seconds t =
  List.fold_left (fun acc s -> acc +. s.seconds) 0.0 t.steps

let outcome_detail = function
  | Ok -> ""
  | Degraded ws ->
      Printf.sprintf "%d warning%s" (List.length ws)
        (if List.length ws = 1 then "" else "s")
  | Skipped r -> reason_to_string r
  | Failed e -> error_to_string e

let render t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "run report: %s%s\n" t.source
    (if t.quarantined then " (quarantined)" else "");
  let rec render_step depth s =
    let indent = String.make (2 + (2 * depth)) ' ' in
    let detail = outcome_detail s.outcome in
    let detail =
      if s.resumed then
        if detail = "" then "[resumed]" else "[resumed] " ^ detail
      else detail
    in
    Printf.bprintf buf "%s%-*s %-9s %8.4fs  %s\n" indent
      (max 1 (24 - (2 * depth)))
      s.step (outcome_name s.outcome) s.seconds detail;
    (match s.outcome with
    | Degraded ws ->
        List.iter
          (fun w -> Printf.bprintf buf "%s  ! %s: %s\n" indent w.code w.detail)
          ws
    | Ok | Skipped _ | Failed _ -> ());
    List.iter (render_step (depth + 1)) s.children
  in
  List.iter (render_step 0) t.steps;
  Buffer.contents buf

(* --- serialization ---

   Line-oriented {!Aladin_store.Serial} records, so the whole report can
   itself be embedded as one field of the metadata repository's own
   line format. *)

let outcome_fields = function
  | Ok -> [ "ok" ]
  | Degraded ws ->
      "degraded" :: List.concat_map (fun w -> [ w.code; w.detail ]) ws
  | Skipped Budget_zero -> [ "skipped"; "budget-zero" ]
  | Skipped (Budget_exhausted b) ->
      [ "skipped"; "budget-exhausted"; Printf.sprintf "%h" b ]
  | Skipped Disabled -> [ "skipped"; "disabled" ]
  | Skipped (Dependency_failed dep) -> [ "skipped"; "dependency"; dep ]
  | Failed (Timeout b) -> [ "failed"; "timeout"; Printf.sprintf "%h" b ]
  | Failed (Crashed msg) -> [ "failed"; "crashed"; msg ]

let outcome_of_fields = function
  | [ "ok" ] -> Some Ok
  | "degraded" :: rest ->
      let rec pairs acc = function
        | [] -> Some (List.rev acc)
        | code :: detail :: rest -> pairs ({ code; detail } :: acc) rest
        | [ _ ] -> None
      in
      Option.map (fun ws -> Degraded ws) (pairs [] rest)
  | [ "skipped"; "budget-zero" ] -> Some (Skipped Budget_zero)
  | [ "skipped"; "budget-exhausted"; b ] ->
      Option.map (fun b -> Skipped (Budget_exhausted b)) (float_of_string_opt b)
  | [ "skipped"; "disabled" ] -> Some (Skipped Disabled)
  | [ "skipped"; "dependency"; dep ] -> Some (Skipped (Dependency_failed dep))
  | [ "failed"; "timeout"; b ] ->
      Option.map (fun b -> Failed (Timeout b)) (float_of_string_opt b)
  | [ "failed"; "crashed"; msg ] -> Some (Failed (Crashed msg))
  | _ -> None

let serialize t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Serial.record [ "report"; t.source; (if t.quarantined then "1" else "0") ]);
  let rec add depth s =
    Buffer.add_char buf '\n';
    (* the optional "resumed" token precedes the outcome fields; outcome
       heads are ok/degraded/skipped/failed, so no ambiguity *)
    Buffer.add_string buf
      (Serial.record
         (string_of_int depth :: s.step
          :: Printf.sprintf "%h" s.seconds
          :: ((if s.resumed then [ "resumed" ] else [])
             @ outcome_fields s.outcome)));
    List.iter (add (depth + 1)) s.children
  in
  List.iter (add 0) t.steps;
  Buffer.contents buf

let deserialize doc =
  let lines =
    String.split_on_char '\n' doc |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> None
  | header :: rest -> (
      match Serial.fields header with
      | [ "report"; source; q ] when q = "0" || q = "1" -> (
          (* parse each line into (depth, step_report without children) *)
          let parsed =
            List.map
              (fun line ->
                match Serial.fields line with
                | depth :: name :: secs :: outcome -> (
                    let resumed, outcome =
                      match outcome with
                      | "resumed" :: rest -> (true, rest)
                      | rest -> (false, rest)
                    in
                    match
                      ( int_of_string_opt depth,
                        float_of_string_opt secs,
                        outcome_of_fields outcome )
                    with
                    | Some d, Some s, Some o ->
                        Some
                          ( d,
                            { step = name; outcome = o; seconds = s; resumed;
                              children = [] } )
                    | _ -> None)
                | _ -> None)
              rest
          in
          if List.exists (( = ) None) parsed then None
          else
            let flat = List.filter_map Fun.id parsed in
            (* rebuild the tree from the depth-annotated pre-order list *)
            let rec build depth items =
              match items with
              | (d, s) :: rest when d = depth ->
                  let children, rest = build (depth + 1) rest in
                  let siblings, rest = build depth rest in
                  ({ s with children } :: siblings, rest)
              | _ -> ([], items)
            in
            let steps, leftover = build 0 flat in
            if leftover <> [] then None
            else Some { source; steps; quarantined = q = "1" })
      | _ -> None)
