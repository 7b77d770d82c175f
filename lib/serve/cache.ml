type 'v entry = { value : 'v; mutable seq : int }

type 'v t = {
  tbl : (string, 'v entry) Hashtbl.t;
  order : (string * int) Queue.t;  (* recency tickets, oldest first *)
  capacity : int;
  mutable next_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity () =
  {
    tbl = Hashtbl.create (max 16 capacity);
    order = Queue.create ();
    capacity;
    next_seq = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let touch (t : 'v t) key entry =
  t.next_seq <- t.next_seq + 1;
  entry.seq <- t.next_seq;
  Queue.push (key, t.next_seq) t.order

(* pop stale tickets until the front names a live, current entry *)
let rec evict_one (t : 'v t) =
  match Queue.take_opt t.order with
  | None -> ()
  | Some (key, seq) -> (
      match Hashtbl.find_opt t.tbl key with
      | Some e when e.seq = seq ->
          Hashtbl.remove t.tbl key;
          t.evictions <- t.evictions + 1
      | Some _ | None -> evict_one t)

let find (t : 'v t) key =
  if t.capacity <= 0 then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    match Hashtbl.find_opt t.tbl key with
    | None ->
        t.misses <- t.misses + 1;
        None
    | Some e ->
        t.hits <- t.hits + 1;
        touch t key e;
        Some e.value

let add (t : 'v t) key value =
  if t.capacity > 0 then begin
    let e = { value; seq = 0 } in
    Hashtbl.replace t.tbl key e;
    touch t key e;
    while Hashtbl.length t.tbl > t.capacity do
      evict_one t
    done
  end

let stats (t : 'v t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = Hashtbl.length t.tbl;
    capacity = t.capacity;
  }
