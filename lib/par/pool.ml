module Trace = Aladin_obs.Trace
module Budget = Aladin_resilience.Budget

type t = {
  domains : int; (* participants per fan-out, caller included *)
  m : Mutex.t;
  work_ready : Condition.t; (* a batch was posted, or stop *)
  batch_done : Condition.t; (* the last busy participant finished *)
  mutable batch : (int -> unit) option; (* the posted batch's work *)
  mutable batch_id : int;
  mutable stopped : bool;
  mutable handles : unit Domain.t list;
}

(* set while a domain (worker or caller) is draining a batch; a nested
   fan-out from inside a task would deadlock the fixed-size pool *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* the per-item Budget.check is the cooperative-cancellation poll point:
   an expired step budget stops the fan-out at the next item instead of
   letting stragglers run to completion *)
let run_sequential f xs =
  List.map
    (fun x ->
      Budget.check ();
      f x)
    xs

let size t = if t.stopped then 1 else t.domains

let worker_loop t participant =
  let rec loop last_id =
    Mutex.lock t.m;
    while t.batch_id = last_id && not t.stopped do
      Condition.wait t.work_ready t.m
    done;
    if t.stopped then Mutex.unlock t.m
    else begin
      let id = t.batch_id and b = t.batch in
      Mutex.unlock t.m;
      (match b with Some work -> work participant | None -> ());
      loop id
    end
  in
  loop 0

let shutdown t =
  Mutex.lock t.m;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.work_ready
  end;
  let hs = t.handles in
  t.handles <- [];
  Mutex.unlock t.m;
  List.iter Domain.join hs

let all_pools : t list ref = ref []
let all_pools_m = Mutex.create ()
let cleanup_registered = ref false

let register t =
  Mutex.lock all_pools_m;
  all_pools := t :: !all_pools;
  if not !cleanup_registered then begin
    cleanup_registered := true;
    at_exit (fun () -> List.iter shutdown !all_pools)
  end;
  Mutex.unlock all_pools_m

let auto_domains () =
  match Sys.getenv_opt "ALADIN_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "ALADIN_DOMAINS must be a positive integer, got %S" s))

let create ?domains () =
  let domains =
    match domains with Some d -> max 1 d | None -> auto_domains ()
  in
  let t =
    {
      domains;
      m = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
      batch_id = 0;
      stopped = false;
      handles = [];
    }
  in
  if domains > 1 then
    t.handles <-
      List.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1)));
  register t;
  t

(* shared pools per size, so Config/env-driven callers never spawn twice *)
let shared : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_m = Mutex.create ()

let get ?(domains = 0) () =
  let d = if domains <= 0 then auto_domains () else domains in
  Mutex.lock shared_m;
  let pool =
    match Hashtbl.find_opt shared d with
    | Some p when not p.stopped -> p
    | Some _ | None ->
        let p = create ~domains:d () in
        Hashtbl.replace shared d p;
        p
  in
  Mutex.unlock shared_m;
  pool

(* Chunked claiming: claim [chunk] consecutive items per cursor bump
   instead of 1, so batches of many small items (candidate-pair
   similarity, xref scans) stop thrashing the shared cursor's cache line.
   Small enough that every participant still claims several times (load
   balancing survives), capped so huge batches don't create stragglers. *)
let chunk_size ~participants n = max 1 (min 64 (n / (participants * 8)))

(* One batch = one parallel_map call. Items are claimed with an atomic
   cursor (dynamic load balancing). A participant counts itself [busy]
   before its first claim and out once its child trace is complete, so
   when the caller's own share is done (the cursor ran dry) and [busy]
   is back to zero, every item has run and every child can be merged. A
   participant that wakes after that claims nothing and is not merged. *)
let run_parallel t f input =
  let n = Array.length input in
  let out = Array.make n None in
  let error = Atomic.make None in
  let caller = Trace.ambient () in
  let deadline = Budget.current () in
  let nparts = t.domains in
  (* one child trace per participant, merged into the caller's at the
     join; none when the caller records nothing *)
  let children =
    Array.init nparts (fun _ -> Option.map (fun _ -> Trace.create ()) caller)
  in
  let claimed = Array.make nparts 0 in
  let next = Atomic.make 0 in
  let busy = Atomic.make 0 in
  let chunk = chunk_size ~participants:nparts n in
  let run_item i =
    if Atomic.get error = None then
      match
        Budget.check ();
        f input.(i)
      with
      | v -> out.(i) <- Some v
      | exception e -> ignore (Atomic.compare_and_set error None (Some e))
  in
  let drain p =
    let rec loop k =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        for i = start to stop - 1 do
          run_item i
        done;
        loop (k + stop - start)
      end
      else if k > 0 then claimed.(p) <- k
    in
    loop 0
  in
  let work p =
    Atomic.incr busy;
    Domain.DLS.set in_task true;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set in_task false;
        if Atomic.fetch_and_add busy (-1) = 1 then begin
          Mutex.lock t.m;
          Condition.broadcast t.batch_done;
          Mutex.unlock t.m
        end)
      (fun () ->
        Budget.with_deadline deadline (fun () ->
            match children.(p) with
            | None -> drain p
            | Some child ->
                Trace.with_ambient child (fun () ->
                    Trace.with_span child "par.worker" (fun () ->
                        Trace.add_attr child "worker" (string_of_int p);
                        drain p;
                        Trace.add_attr child "items"
                          (string_of_int claimed.(p))))))
  in
  Mutex.lock t.m;
  t.batch <- Some work;
  t.batch_id <- t.batch_id + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  work 0;
  Mutex.lock t.m;
  while Atomic.get busy > 0 do
    Condition.wait t.batch_done t.m
  done;
  t.batch <- None;
  Mutex.unlock t.m;
  (match caller with
  | None -> ()
  | Some tr ->
      Trace.add_attr tr "par.domains" (string_of_int nparts);
      (* a participant that claimed no item recorded nothing but its
         par.worker span, which the trace leaves out *)
      Array.iteri
        (fun p child ->
          match child with
          | Some child when claimed.(p) > 0 -> Trace.merge tr child
          | Some _ | None -> ())
        children);
  match Atomic.get error with
  | Some e -> raise e
  | None -> Array.to_list (Array.map Option.get out)

let parallel_map t f xs =
  if Domain.DLS.get in_task then
    invalid_arg "Pool.parallel_map: nested fan-out from inside a pool task";
  match xs with
  | [] -> []
  (* the singleton shortcut must still poll the budget: a 1-element list
     must not escape an already-expired step budget that the sequential
     path would enforce *)
  | [ _ ] as xs -> run_sequential f xs
  | xs ->
      if t.domains <= 1 || t.stopped then run_sequential f xs
      else run_parallel t f (Array.of_list xs)

let parallel_filter_map t f xs = List.filter_map Fun.id (parallel_map t f xs)

let map ?pool f xs =
  match pool with None -> run_sequential f xs | Some p -> parallel_map p f xs

let filter_map ?pool f xs =
  match pool with
  | None -> List.filter_map f xs
  | Some p -> parallel_filter_map p f xs
