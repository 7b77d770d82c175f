type t = {
  tname : string;
  started : float;
  mutable open_stack : Span.t list; (* innermost first *)
  mutable finished_roots : Span.t list; (* reversed *)
  tcounters : (string, int ref) Hashtbl.t;
  thistograms : (string, Histogram.t) Hashtbl.t;
}

let create ?(name = "trace") () =
  {
    tname = name;
    started = Clock.now ();
    open_stack = [];
    finished_roots = [];
    tcounters = Hashtbl.create 16;
    thistograms = Hashtbl.create 8;
  }

let name t = t.tname

let started_at t = t.started

let finish_span t sp =
  Span.close sp ~at:(Clock.now ());
  (match t.open_stack with
  | s :: rest when s == sp -> t.open_stack <- rest
  | _ -> t.open_stack <- List.filter (fun s -> s != sp) t.open_stack);
  match t.open_stack with
  | parent :: _ -> Span.add_child parent sp
  | [] -> t.finished_roots <- sp :: t.finished_roots

let span t ?(attrs = []) sname f =
  let sp = Span.make ~name:sname ~start:(Clock.now ()) in
  List.iter (fun (k, v) -> Span.add_attr sp k v) attrs;
  t.open_stack <- sp :: t.open_stack;
  Fun.protect ~finally:(fun () -> finish_span t sp) f

let with_span t sname f = span t sname f

let timed_span t ?attrs sname f =
  let sp_ref = ref None in
  let v =
    span t ?attrs sname (fun () ->
        (match t.open_stack with sp :: _ -> sp_ref := Some sp | [] -> ());
        f ())
  in
  let secs = match !sp_ref with Some sp -> Span.duration sp | None -> 0.0 in
  (v, secs)

let add_attr t k v =
  match t.open_stack with sp :: _ -> Span.add_attr sp k v | [] -> ()

let roots t = List.rev t.finished_roots

let duration t =
  List.fold_left
    (fun acc sp -> Float.max acc (Span.finish sp -. t.started))
    0.0 t.finished_roots

let histogram t hname =
  match Hashtbl.find_opt t.thistograms hname with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.thistograms hname h;
      h

(* a counter is a named int cell, made at its first increment *)
let incr t ?(by = 1) cname =
  match Hashtbl.find_opt t.tcounters cname with
  | Some c -> c := !c + by
  | None -> Hashtbl.add t.tcounters cname (ref by)

let observe t hname v = Histogram.observe (histogram t hname) v

let counter_value t cname =
  match Hashtbl.find_opt t.tcounters cname with
  | Some c -> !c
  | None -> 0

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.tcounters []
  |> by_name

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.thistograms [] |> by_name

let attach_span t sp =
  match t.open_stack with
  | parent :: _ -> Span.add_child parent sp
  | [] -> t.finished_roots <- sp :: t.finished_roots

(* A child trace recorded on another domain: its counters and
   histograms add into [t], and its root spans attach where [t] stands. *)
let merge t child =
  Hashtbl.iter (fun k c -> incr t ~by:!c k) child.tcounters;
  Hashtbl.iter
    (fun k h -> Histogram.merge_into (histogram t k) h)
    child.thistograms;
  List.iter (attach_span t) (roots child)

(* --- ambient trace --- *)

(* one slot per domain: the orchestrator's trace on its own domain, a
   pool participant's child trace on the domain it runs on. A ref inside
   DLS keeps install/restore a plain write. *)
let slot : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_ambient t f =
  let cell = Domain.DLS.get slot in
  let prev = !cell in
  cell := Some t;
  Fun.protect ~finally:(fun () -> cell := prev) f

let ambient () = !(Domain.DLS.get slot)

let ambient_span ?attrs sname f =
  match ambient () with Some t -> span t ?attrs sname f | None -> f ()

let ambient_span_timed ?attrs sname f =
  match ambient () with
  | Some t -> timed_span t ?attrs sname f
  | None -> Clock.timed f

let ambient_add_attr k v =
  match ambient () with Some t -> add_attr t k v | None -> ()

let ambient_incr ?by cname =
  match ambient () with Some t -> incr t ?by cname | None -> ()

let ambient_observe hname v =
  match ambient () with Some t -> observe t hname v | None -> ()
