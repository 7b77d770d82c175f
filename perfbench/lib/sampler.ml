(* The serve workload's request sampler: a route by fixed weights, then a
   key within the route by Zipf(s = 1) over a seeded permutation of that
   route's targets. Deterministic per seed. *)

module Rng = Aladin_datagen.Rng

type route = Object | Search | Resolve | Query | Links

let routes = [ Object; Search; Resolve; Query; Links ]

let route_name = function
  | Object -> "object"
  | Search -> "search"
  | Resolve -> "resolve"
  | Query -> "query"
  | Links -> "links"

let route_of_name = function
  | "object" -> Some Object
  | "search" -> Some Search
  | "resolve" -> Some Resolve
  | "query" -> Some Query
  | "links" -> Some Links
  | _ -> None

(* percent of requests per route *)
let weight = function
  | Object -> 50
  | Search -> 25
  | Resolve -> 15
  | Query -> 8
  | Links -> 2

(* Cumulative Zipf(s = 1) mass over ranks 0..n-1: rank r has weight
   1 / (r + 1). *)
let zipf_cdf n =
  let c = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    c.(r) <- !acc
  done;
  c

(* the first rank whose cumulative mass reaches [u * total] *)
let zipf_rank cdf u =
  let n = Array.length cdf in
  let target = u *. cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo

type lane = { route : route; keys : string array; cdf : float array }

type t = { rng : Rng.t; lanes : lane array; total_weight : int }

(* [create ~seed targets] over [(route, target)] pairs; routes with no
   targets drop out and the remaining weights renormalize. *)
let create ~seed targets =
  let rng = Rng.create seed in
  let lanes =
    List.filter_map
      (fun route ->
        let keys =
          List.filter_map
            (fun (r, k) -> if r = route then Some k else None)
            targets
        in
        match keys with
        | [] -> None
        | keys ->
            let keys = Array.of_list (Rng.shuffle rng keys) in
            Some { route; keys; cdf = zipf_cdf (Array.length keys) })
      routes
    |> Array.of_list
  in
  if Array.length lanes = 0 then invalid_arg "Sampler.create: no targets";
  let total_weight =
    Array.fold_left (fun acc l -> acc + weight l.route) 0 lanes
  in
  { rng; lanes; total_weight }

let next t =
  let w = Rng.int t.rng t.total_weight in
  let rec pick i acc =
    let l = t.lanes.(i) in
    let acc = acc + weight l.route in
    if w < acc || i = Array.length t.lanes - 1 then l else pick (i + 1) acc
  in
  let l = pick 0 0 in
  let r = zipf_rank l.cdf (Rng.float t.rng 1.0) in
  (l.route, l.keys.(r))

let distinct_targets t =
  Array.fold_left (fun acc l -> acc + Array.length l.keys) 0 t.lanes
