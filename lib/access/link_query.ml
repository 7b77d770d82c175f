open Aladin_links

type step = {
  kinds : Link.kind list;
  target_source : string option;
  min_confidence : float;
}

let step ?(kinds = []) ?target_source ?(min_confidence = 0.0) () =
  { kinds; target_source; min_confidence }

type hit = {
  endpoint : Objref.t;
  path : Link.t list;
  score : float;
  start : Objref.t;
}

module Otbl = Hashtbl.Make (struct
  type t = Objref.t

  let equal = Objref.equal
  let hash = Objref.hash
end)

(* each object's links, last first: the links with the object on either
   end in the reverse of the order [create] was given them, a self-link
   once. Read-only once built, so any number of domains may read it. *)
type t = Link.t list Otbl.t

let create links =
  let t = Otbl.create 1024 in
  let add obj l =
    Otbl.replace t obj (l :: (try Otbl.find t obj with Not_found -> []))
  in
  List.iter
    (fun (l : Link.t) ->
      add l.src l;
      if not (Objref.equal l.src l.dst) then add l.dst l)
    links;
  t

let adjacent t obj = try Otbl.find t obj with Not_found -> []

let links_of t obj = List.rev (adjacent t obj)

let other_end (l : Link.t) obj = if Objref.equal l.src obj then l.dst else l.src

let iter_adjacent t obj f =
  List.iter (fun l -> f (other_end l obj) l) (adjacent t obj)

let step_admits stp (next : Objref.t) (l : Link.t) =
  (stp.kinds = [] || List.mem l.kind stp.kinds)
  && (match stp.target_source with
     | Some s -> next.Objref.source = s
     | None -> true)
  && l.confidence >= stp.min_confidence

(* one partial traversal: current endpoint, path so far (reversed),
   visited set, running score *)
type partial = {
  here : Objref.t;
  rev_path : Link.t list;
  visited : Objref.t list;
  pscore : float;
  origin : Objref.t;
}

let run t ~start ~steps =
  let initial =
    List.map
      (fun o -> { here = o; rev_path = []; visited = [ o ]; pscore = 1.0; origin = o })
      start
  in
  let expand stp partials =
    List.concat_map
      (fun p ->
        adjacent t p.here
        |> List.filter_map (fun l ->
               let next = other_end l p.here in
               if
                 step_admits stp next l
                 && not (List.exists (Objref.equal next) p.visited)
               then
                 Some
                   { here = next; rev_path = l :: p.rev_path;
                     visited = next :: p.visited;
                     pscore = p.pscore *. l.Link.confidence;
                     origin = p.origin }
               else None))
      partials
  in
  let finals = List.fold_left (fun ps stp -> expand stp ps) initial steps in
  (* best witness per (start, endpoint) *)
  let best : (string, hit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let key = Objref.to_string p.origin ^ "\x00" ^ Objref.to_string p.here in
      let hit =
        { endpoint = p.here; path = List.rev p.rev_path; score = p.pscore;
          start = p.origin }
      in
      match Hashtbl.find_opt best key with
      | Some existing when existing.score >= hit.score -> ()
      | Some _ | None -> Hashtbl.replace best key hit)
    finals;
  Hashtbl.fold (fun _ h acc -> h :: acc) best []
  |> List.sort (fun a b ->
         match Float.compare b.score a.score with
         | 0 -> (
             match Objref.compare a.start b.start with
             | 0 -> Objref.compare a.endpoint b.endpoint
             | c -> c)
         | c -> c)
