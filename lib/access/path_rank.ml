open Aladin_links

(* paths longer than this are not followed *)
let max_depth = 3

(* discount per extra link of a path *)
let decay = 0.5

(* accumulate path contributions into [sink] for every reachable node,
   walking each object's links in the index's order *)
let explore index start =
  let sink : (Objref.t, float ref) Hashtbl.t = Hashtbl.create 64 in
  let rec dfs node visited weight depth =
    if depth < max_depth then
      Link_query.iter_adjacent index node (fun next (l : Link.t) ->
          if not (List.exists (Objref.equal next) visited) then begin
            let w = weight *. l.confidence *. (decay ** float_of_int depth) in
            (match Hashtbl.find_opt sink next with
            | Some r -> r := !r +. w
            | None -> Hashtbl.add sink next (ref w));
            dfs next (next :: visited) (weight *. l.confidence) (depth + 1)
          end)
  in
  dfs start [ start ] 1.0 0;
  sink

let relatedness index a b =
  let sink = explore index a in
  match Hashtbl.find_opt sink b with Some r -> !r | None -> 0.0

let rank_from index start =
  let sink = explore index start in
  Hashtbl.fold (fun obj r acc -> (obj, !r) :: acc) sink []
  |> List.sort (fun (oa, a) (ob, b) ->
         match Float.compare b a with 0 -> Objref.compare oa ob | c -> c)
