exception Killed

(* three independent armaments; each raises Killed when its own budget
   crosses. Plain refs, single-writer, like the crash they model. *)
let budget = ref None (* bytes *)

let ops_budget = ref None (* store operations *)

let step_budget = ref None (* pipeline step boundaries *)

(* always-on counters, so harnesses can measure a clean run before
   choosing where to kill the next one *)
let bytes_seen = ref 0

let ops_seen = ref 0

let steps_seen = ref 0

let arm ~bytes = budget := Some (max 0 bytes)

let arm_ops ~ops = ops_budget := Some (max 0 ops)

let arm_step ~index = step_budget := Some (max 0 index)

let disarm () =
  budget := None;
  ops_budget := None;
  step_budget := None

let reset_counters () =
  bytes_seen := 0;
  ops_seen := 0;
  steps_seen := 0

let counters () = (!bytes_seen, !ops_seen, !steps_seen)

let request n =
  let permitted =
    match !budget with
    | None -> n
    | Some b when n <= b ->
        budget := Some (b - n);
        n
    | Some b ->
        budget := Some 0;
        b
  in
  bytes_seen := !bytes_seen + permitted;
  permitted

let check_op () =
  match !budget with
  | None -> ()
  | Some b when b >= 1 -> budget := Some (b - 1)
  | Some _ -> raise Killed

let op () =
  incr ops_seen;
  match !ops_budget with
  | None -> ()
  | Some n when n >= 1 -> ops_budget := Some (n - 1)
  | Some _ -> raise Killed

let step name =
  ignore name;
  let at = !steps_seen in
  incr steps_seen;
  match !step_budget with
  | Some i when at >= i -> raise Killed
  | Some _ | None -> ()
