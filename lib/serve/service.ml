module Engine = Aladin.Engine
module Generation = Aladin.Generation
module Pool = Aladin_par.Pool
module Boundary = Aladin_resilience.Boundary
module Budget = Aladin_resilience.Budget
module Run_report = Aladin_resilience.Run_report
module Clock = Aladin_obs.Clock
module Histogram = Aladin_obs.Histogram
module Lk = Aladin_links

type config = {
  cache_capacity : int;
  request_budget : float option;
  debug_endpoints : bool;
}

let default_config =
  {
    cache_capacity = 512;
    request_budget = Some 5.0;
    debug_endpoints = false;
  }

(* A cached response, kept as the wire bytes of its hit variant: the
   server writes [wire] as it is, and [handle_batch] slices the body back
   out of it. *)
type entry = {
  wire : string;  (* Http.render of the response with x-cache: hit *)
  status : int;
  headers : (string * string) list;  (* the hit variant's *)
  body_off : int;  (* where the body starts in [wire] *)
}

type t = {
  engine : Engine.t;
  pool : Pool.t option;
  cfg : config;
  cache : entry Cache.t;
  histos : (string, Histogram.t) Hashtbl.t;  (* route -> latency *)
  counts : (string, int ref) Hashtbl.t;  (* route -> requests served *)
  mutable timeouts : int;  (* request deadlines hit *)
  mutable failures : int;  (* handler crashes (500) *)
}

let create ?pool ?(config = default_config) engine =
  {
    engine;
    pool;
    cfg = config;
    cache = Cache.create ~capacity:config.cache_capacity ();
    histos = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    timeouts = 0;
    failures = 0;
  }

let cache_stats t = Cache.stats t.cache

(* --- routing --- *)

let route_of (req : Http.request) =
  let p = req.path in
  let starts pre =
    String.length p >= String.length pre && String.sub p 0 (String.length pre) = pre
  in
  if p = "/healthz" then "healthz"
  else if p = "/metrics" then "metrics"
  else if p = "/search" then "search"
  else if p = "/object" || starts "/object/" then "object"
  else if p = "/resolve" then "resolve"
  else if p = "/query" then "query"
  else if p = "/links" then "links"
  else if p = "/slow" then "slow"
  else "other"

(* responses for the cacheable routes depend only on (engine key over
   the data the route reads, normalized target), which is exactly the
   cache key *)
let cacheable route =
  match route with
  | "search" | "object" | "resolve" | "query" | "links" -> true
  | _ -> false

(* which warehouse data a cacheable route reads, as typed dependencies:
   a /query over source-qualified tables reads exactly those sources
   ("source.relation" lexes as a single dotted identifier), and
   /links?kind=K reads one link kind. Anything else — bare table names,
   unparseable SQL, search/browse routes — conservatively depends on
   the whole warehouse. Cached responses therefore survive additions
   and updates of sources they never read. *)
let every_kind =
  List.map (fun k -> Generation.Link_kind (Lk.Link.kind_name k)) Lk.Link.kinds

let deps_of_req route (req : Http.request) =
  match route with
  | "query" -> (
      match Http.query_param req "sql" with
      | None | Some "" -> [ Generation.Whole ]
      | Some sql -> (
          match Aladin_access.Sql_parser.parse sql with
          | q ->
              let tables =
                q.Aladin_access.Sql_parser.from_table
                :: List.map (fun (tbl, _, _) -> tbl)
                     q.Aladin_access.Sql_parser.joins
              in
              List.map
                (fun tbl ->
                  match String.index_opt tbl '.' with
                  | Some i -> Generation.Source (String.sub tbl 0 i)
                  | None -> Generation.Whole)
                tables
          | exception _ -> [ Generation.Whole ]))
  | "links" -> (
      match Http.query_param req "kind" with
      | None | Some "" -> every_kind
      | Some k -> [ Generation.Link_kind k ])
  (* a view lists the object's rows, its links of every kind and the
     conflicts of its duplicate links *)
  | "object" -> Generation.Whole :: every_kind
  | _ -> [ Generation.Whole ]

let cache_key t route req =
  Engine.key t.engine (deps_of_req route req) ^ ":" ^ Http.normalize_target req

(* --- handlers (pure engine reads; run inside the pool fan-out) --- *)

let bad_request msg = Http.response 400 (msg ^ "\n")

let hits_json query hits =
  let hit (h : Aladin_access.Search.hit) =
    Printf.sprintf "{\"object\":%s,\"score\":%.6f,\"matched\":[%s]}"
      (Http.json_string (Lk.Objref.to_string h.obj))
      h.score
      (String.concat "," (List.map Http.json_string h.matched))
  in
  Printf.sprintf "{\"query\":%s,\"hits\":[%s]}\n" (Http.json_string query)
    (String.concat "," (List.map hit hits))

let handle_search t (req : Http.request) =
  match Http.query_param req "q" with
  | None | Some "" -> bad_request "missing query parameter q"
  | Some q -> (
      let source = Http.query_param req "source" in
      let field = Http.query_param req "field" in
      match Option.map int_of_string_opt (Http.query_param req "limit") with
      | Some None -> bad_request "limit must be an integer"
      | (None | Some (Some _)) as l ->
          let limit = Option.join l in
          let hits =
            match (source, field) with
            | None, None -> Engine.search t.engine ?limit q
            | _ -> Engine.focused t.engine ?source ?field ?limit q
          in
          Http.response 200 ~content_type:"application/json" (hits_json q hits))

let handle_object t (req : Http.request) =
  let source, accession =
    match String.split_on_char '/' req.path with
    | [ ""; "object"; source; accession ] -> (Some source, Some accession)
    | _ -> (Http.query_param req "source", Http.query_param req "accession")
  in
  match accession with
  | None | Some "" -> bad_request "missing accession"
  | Some acc -> (
      match Engine.browse t.engine ?source acc with
      | Some view -> Http.response 200 (Aladin_access.Browser.render view)
      | None -> Http.response 404 (Printf.sprintf "object %s not found\n" acc))

let handle_resolve t (req : Http.request) =
  match Http.query_param req "accession" with
  | None | Some "" -> bad_request "missing accession"
  | Some acc -> (
      match Engine.resolve t.engine acc with
      | Some obj ->
          Http.response 200 ~content_type:"application/json"
            (Printf.sprintf "{\"accession\":%s,\"object\":%s}\n"
               (Http.json_string acc)
               (Http.json_string (Lk.Objref.to_string obj)))
      | None ->
          Http.response 404 (Printf.sprintf "accession %s not found\n" acc))

let handle_query t (req : Http.request) =
  match Http.query_param req "sql" with
  | None | Some "" -> bad_request "missing sql"
  | Some sql -> (
      match Engine.query t.engine sql with
      | Ok rel -> Http.response 200 (Aladin_access.Sql_eval.render_result rel)
      | Error msg -> bad_request msg)

let handle_links t (req : Http.request) =
  let kind = Http.query_param req "kind" in
  Http.response 200 ~content_type:"text/csv"
    (Aladin_access.Link_export.to_csv (Engine.links ?kind t.engine))

(* deadline-polling sleeper: long enough work to pile a queue up behind,
   but still honouring the per-request budget *)
let handle_slow (req : Http.request) =
  let seconds =
    match Option.map float_of_string_opt (Http.query_param req "seconds") with
    | Some (Some s) when s >= 0.0 -> Float.min s 30.0
    | _ -> 0.1
  in
  let until = Clock.now () +. seconds in
  while Clock.now () < until do
    Budget.check ();
    Aladin_resilience.Retry.sleepf 0.005
  done;
  Http.response 200 (Printf.sprintf "slept %.3fs\n" seconds)

let compute t route (req : Http.request) =
  if req.meth <> "GET" then
    Http.response 405 "only GET is supported\n"
  else
    match route with
    | "healthz" -> Http.response 200 "ok\n"
    | "search" -> handle_search t req
    | "object" -> handle_object t req
    | "resolve" -> handle_resolve t req
    | "query" -> handle_query t req
    | "links" -> handle_links t req
    | "slow" when t.cfg.debug_endpoints -> handle_slow req
    | _ -> Http.response 404 (Printf.sprintf "no route for %s\n" req.path)

(* per-request deadline: a budget on the domain that handles the
   request, so every concurrently handled request carries its own, then
   an error boundary so one bad request can never take the batch down *)
let compute_protected t route req =
  match
    Boundary.protect ~step:("serve " ^ route) ?budget:t.cfg.request_budget
      (fun () -> compute t route req)
  with
  | Ok resp -> resp
  | Error (Run_report.Timeout b) ->
      Http.response 503
        ~headers:[ ("retry-after", "1") ]
        (Printf.sprintf "deadline of %.3fs exceeded\n" b)
  | Error (Run_report.Crashed msg) ->
      Http.response 500 ("internal error: " ^ msg ^ "\n")

(* --- metrics --- *)

let histo t route =
  match Hashtbl.find_opt t.histos route with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace t.histos route h;
      h

let count t route =
  match Hashtbl.find_opt t.counts route with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace t.counts route c;
      c

(* bucket-resolution quantile estimate: the upper bound of the first
   bucket at or past the target rank (the overflow bucket reports the
   observed max) *)
let quantile h q =
  let total = Histogram.count h in
  if total = 0 then 0.0
  else
    let rank = Float.max 1.0 (Float.round (q *. float_of_int total)) in
    let rec go cum = function
      | [] -> Histogram.max_value h
      | (bound, n) :: rest ->
          let cum = cum + n in
          if float_of_int cum >= rank then
            if bound = Float.infinity then Histogram.max_value h else bound
          else go cum rest
    in
    go 0 (Histogram.buckets h)

(* cache hits are counted but not observed in the latency histogram,
   which therefore measures the compute (miss) path *)
let observe t route seconds status =
  (match seconds with None -> () | Some s -> Histogram.observe (histo t route) s);
  incr (count t route);
  match status with
  | 503 -> t.timeouts <- t.timeouts + 1
  | 500 -> t.failures <- t.failures + 1
  | _ -> ()

let metrics_text ?(extra = []) t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "aladin_warehouse_generation %d"
    (Generation.get
       (Aladin.Warehouse.generation (Engine.warehouse t.engine))
       Generation.Whole);
  let cs = Cache.stats t.cache in
  line "aladin_cache_hits_total %d" cs.hits;
  line "aladin_cache_misses_total %d" cs.misses;
  line "aladin_cache_evictions_total %d" cs.evictions;
  line "aladin_cache_size %d" cs.size;
  line "aladin_cache_capacity %d" cs.capacity;
  (let looked = cs.hits + cs.misses in
   if looked > 0 then
     line "aladin_cache_hit_rate %.4f"
       (float_of_int cs.hits /. float_of_int looked));
  line "aladin_request_timeouts_total %d" t.timeouts;
  line "aladin_request_failures_total %d" t.failures;
  let routes =
    Hashtbl.fold (fun r _ acc -> r :: acc) t.counts []
    |> List.sort String.compare
  in
  List.iter
    (fun route ->
      let c = !(count t route) in
      let h = histo t route in
      line "aladin_requests_total{route=%S} %d" route c;
      line "aladin_request_seconds_count{route=%S} %d" route (Histogram.count h);
      line "aladin_request_seconds_sum{route=%S} %.6f" route (Histogram.sum h);
      line "aladin_request_seconds_max{route=%S} %.6f" route
        (Histogram.max_value h);
      List.iter
        (fun (q, label) ->
          line "aladin_request_seconds{route=%S,quantile=%S} %.6f" route label
            (quantile h q))
        [ (0.5, "0.5"); (0.95, "0.95"); (0.99, "0.99") ])
    routes;
  List.iter (fun (name, v) -> line "%s %.6f" name v) extra;
  Buffer.contents b

(* --- the batch path --- *)

(* pure: runs on a pool domain, so the copy into the entry is made in
   parallel with the batch's other misses *)
let entry_of (resp : Http.response) =
  let hit = Http.with_header resp "x-cache" "hit" in
  let wire = Http.render hit in
  {
    wire;
    status = hit.status;
    headers = hit.headers;
    body_off = String.length wire - String.length hit.body;
  }

let response_of (e : entry) : Http.response =
  {
    status = e.status;
    headers = e.headers;
    body = String.sub e.wire e.body_off (String.length e.wire - e.body_off);
  }

type item =
  | Hit of string * entry  (* route, cached entry *)
  | Run of string * string option * Http.request  (* route, cache key *)

(* one answer: a cache entry, or a fresh response flagged a miss *)
type answer = Stored of entry | Fresh of Http.response

let answer_batch t reqs =
  let items =
    List.map
      (fun req ->
        let route = route_of req in
        if cacheable route && req.meth = "GET" then
          let key = cache_key t route req in
          match Cache.find t.cache key with
          | Some e -> Hit (route, e)
          | None -> Run (route, Some key, req)
        else Run (route, None, req))
      reqs
  in
  (* fan the misses out; each worker times its own request so latency
     attribution is exact, and all shared-state updates happen back here *)
  let to_run =
    List.filter_map (function Run (r, k, req) -> Some (r, k, req) | Hit _ -> None)
      items
  in
  let ran =
    Pool.map ?pool:t.pool
      (fun (route, key, req) ->
        let resp, secs = Clock.timed (fun () -> compute_protected t route req) in
        let entry =
          match key with
          | Some k when resp.Http.status = 200 -> Some (k, entry_of resp)
          | _ -> None
        in
        (route, resp, secs, entry))
      to_run
  in
  let ran = ref ran in
  List.map
    (fun item ->
      match item with
      | Hit (route, e) ->
          observe t route None e.status;
          Stored e
      | Run _ -> (
          match !ran with
          | (route, resp, secs, entry) :: rest ->
              ran := rest;
              observe t route (Some secs) resp.Http.status;
              Option.iter (fun (k, e) -> Cache.add t.cache k e) entry;
              Fresh (Http.with_header resp "x-cache" "miss")
          | [] -> Fresh (Http.response 500 "internal error: batch result mismatch\n")))
    items

let handle_batch t reqs =
  List.map
    (function Stored e -> response_of e | Fresh resp -> resp)
    (answer_batch t reqs)

let render_batch t reqs =
  List.map
    (function Stored e -> e.wire | Fresh resp -> Http.render resp)
    (answer_batch t reqs)

let handle t req =
  match handle_batch t [ req ] with
  | [ resp ] -> resp
  | _ -> Http.response 500 "internal error\n"
