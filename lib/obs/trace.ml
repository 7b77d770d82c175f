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

(* A counter is a named int cell, of the trace or of a domain's buffer. *)
let counter tbl cname =
  match Hashtbl.find_opt tbl cname with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add tbl cname c;
      c

let bump c by = c := !c + Option.value by ~default:1

let histogram t hname =
  match Hashtbl.find_opt t.thistograms hname with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.thistograms hname h;
      h

let incr t ?by cname = bump (counter t.tcounters cname) by

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

(* --- per-domain buffers --- *)

type buffer = {
  bcounters : (string, int ref) Hashtbl.t;
  bhistograms : (string, Histogram.t) Hashtbl.t;
  mutable bstack : Span.t list; (* innermost first *)
  mutable broots : Span.t list; (* reversed *)
}

let buffer_create () =
  {
    bcounters = Hashtbl.create 8;
    bhistograms = Hashtbl.create 4;
    bstack = [];
    broots = [];
  }

let buffer_key : buffer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_buffer b f =
  let prev = Domain.DLS.get buffer_key in
  Domain.DLS.set buffer_key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set buffer_key prev) f

let buf_histogram b hname =
  match Hashtbl.find_opt b.bhistograms hname with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add b.bhistograms hname h;
      h

let buffer_span b ?(attrs = []) sname f =
  let sp = Span.make ~name:sname ~start:(Clock.now ()) in
  List.iter (fun (k, v) -> Span.add_attr sp k v) attrs;
  b.bstack <- sp :: b.bstack;
  Fun.protect
    ~finally:(fun () ->
      Span.close sp ~at:(Clock.now ());
      (match b.bstack with
      | s :: rest when s == sp -> b.bstack <- rest
      | _ -> b.bstack <- List.filter (fun s -> s != sp) b.bstack);
      match b.bstack with
      | parent :: _ -> Span.add_child parent sp
      | [] -> b.broots <- sp :: b.broots)
    f

let merge_buffer t ?spans_into b =
  Hashtbl.iter (fun k c -> incr t ~by:!c k) b.bcounters;
  Hashtbl.iter
    (fun k h -> Histogram.merge_into (histogram t k) h)
    b.bhistograms;
  List.iter
    (fun sp ->
      match spans_into with
      | Some parent -> Span.add_child parent sp
      | None -> attach_span t sp)
    (List.rev b.broots)

(* --- ambient trace --- *)

let current : t option ref = ref None

let with_ambient t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

let ambient () = !current

let ambient_span ?attrs sname f =
  match Domain.DLS.get buffer_key with
  | Some b -> buffer_span b ?attrs sname f
  | None -> (
      match !current with Some t -> span t ?attrs sname f | None -> f ())

let ambient_span_timed ?attrs sname f =
  match Domain.DLS.get buffer_key with
  | Some b -> Clock.timed (fun () -> buffer_span b ?attrs sname f)
  | None -> (
      match !current with
      | Some t -> timed_span t ?attrs sname f
      | None -> Clock.timed f)

let ambient_add_attr k v =
  match Domain.DLS.get buffer_key with
  | Some b -> (
      match b.bstack with sp :: _ -> Span.add_attr sp k v | [] -> ())
  | None -> ( match !current with Some t -> add_attr t k v | None -> ())

let ambient_incr ?by cname =
  match Domain.DLS.get buffer_key with
  | Some b -> bump (counter b.bcounters cname) by
  | None -> ( match !current with Some t -> incr t ?by cname | None -> ())

let ambient_observe hname v =
  match Domain.DLS.get buffer_key with
  | Some b -> Histogram.observe (buf_histogram b hname) v
  | None -> ( match !current with Some t -> observe t hname v | None -> ())
