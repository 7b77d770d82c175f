(* The serve workload: [Server.run] over the full store in a forked
   child with the default service config (512-entry cache, 60 s TTL,
   5 s budget, queue 64) on an ephemeral port, driven open-loop from
   this process.

   The generator is [host_cores] systhreads, each with one blocking
   [Client.request] in flight. Request [i] of a phase is due at
   [start + i / rate]; a thread claims the next index, sleeps until it
   is due (Retry.sleepf), sends, and records due, send and finish
   times. Latency is measured from the due time, so the generator's own
   lag is charged to the requests it delayed and reported beside them.

   The server child is forked before this process starts any thread,
   and this process never spawns a domain. *)

open Aladin
module Serve = Aladin_serve
module Retry = Aladin_resilience.Retry
module Stats = Perfbench_lib.Stats
module Sched = Perfbench_lib.Sched
module Sampler = Perfbench_lib.Sampler
open Common
module Layers = Perfbench_lib.Layers

let cache_capacity = Serve.Service.default_config.cache_capacity

(* the latency limit on each rate's tail percentile, and the lag growth
   that counts as a backlog building up *)
let limit_s = 0.025
let max_growth_s = 0.002

(* the two headline rates (about a quarter and three quarters of the
   capacity measured on a 2-core host) and the ladder searched for the
   highest sustainable one *)
let low_rate = 600.0
let high_rate = 1800.0
let ladder = [ 1200.0; 1500.0; 1800.0; 2100.0; 2400.0; 2700.0; 3000.0; 3300.0 ]

(* Requests per phase: a p99 needs 1000 samples to have ten beyond it.
   The two headline phases scale with the run's seconds (35% and 15% of
   it); ladder steps are fixed. *)
let headline_requests ~seconds ~share rate =
  max 1000 (int_of_float (rate *. seconds *. share))

let ladder_requests = 1200
let warmup_requests = 3000

(* The closed-loop phase after the warm-up: [host_cores] requests in
   flight back to back on the warm cache. Its time per request, the
   inverse of the server's capacity, is the gated op_ms: on a shared
   2-core host it spread half as much across runs as the p50 at the low
   rate, which a single scheduling stall moves. *)
let saturation_requests = 12000

(* --- the server child --- *)

type server = {
  pid : int;
  port : int;
  setup_s : float;  (** fork to on_ready: load + Engine.create + bind *)
  load_s : float;
  create_s : float;
  ic : in_channel;
}

type server_stats = {
  rejected : int;
  batches : int;
  max_batch : int;
  rss_mb : float;
  gc : (string * float) list;  (** from the child's start to its drain *)
}

let start_server (inp : Inputs.t) =
  let r, w = Unix.pipe ~cloexec:true () in
  let t_fork = clock () in
  match fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let gc0 = Gc.quick_stat () in
      (try
         let (wh, lr), load_s =
           timed (fun () ->
               Warehouse.load_dir ~config:(Pipeline.config ()) (Inputs.full_store inp))
         in
         if not (Aladin_store.Load_report.is_clean lr) then
           raise (Child_failed "the serve store loaded degraded");
         let eng, create_s = timed (fun () -> Engine.create wh) in
         let pool = Aladin_par.Pool.create ~domains:(host_cores ()) () in
         let service = Serve.Service.create ~pool eng in
         let on_ready port =
           Printf.fprintf oc "ready %d %.9f %.9f %.9f\n%!" port (clock ()) load_s create_s
         in
         let st =
           Serve.Server.run ~config:{ Serve.Server.default_config with port = 0 } ~on_ready
             service
         in
         Printf.fprintf oc "stats %d %d %d %.6f" st.rejected st.batches st.max_batch
           (vm_hwm_mb ());
         List.iter (fun (_, v) -> Printf.fprintf oc " %.1f" v) (Layers.gc_delta gc0 (Gc.quick_stat ()));
         Printf.fprintf oc "\n%!";
         close_out oc;
         Unix._exit 0
       with e ->
         Printf.fprintf oc "error %s\n%!" (Printexc.to_string e);
         Unix._exit 1)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "error server exited" in
      match String.split_on_char ' ' line with
      | [ "ready"; port; at; load_s; create_s ] ->
          {
            pid;
            port = int_of_string port;
            setup_s = float_of_string at -. t_fork;
            load_s = float_of_string load_s;
            create_s = float_of_string create_s;
            ic;
          }
      | _ ->
          ignore (reap pid);
          raise (Child_failed ("server: " ^ line)))

(* SIGTERM, then the drain summary the child writes on its way out *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let line = try input_line s.ic with End_of_file -> "" in
  close_in s.ic;
  ignore (reap s.pid);
  match String.split_on_char ' ' line with
  | "stats" :: rejected :: batches :: max_batch :: rss :: gc ->
      {
        rejected = int_of_string rejected;
        batches = int_of_string batches;
        max_batch = int_of_string max_batch;
        rss_mb = float_of_string rss;
        gc = List.map2 (fun name v -> (name, float_of_string v)) Layers.gc_names gc;
      }
  | _ -> raise (Child_failed ("server drain: " ^ line))

(* --- the generator --- *)

type result = {
  sample : Sched.sample;
  route : string;
  target : string;
  hit : bool;  (** answered from the server's cache *)
  error : string option;  (** why the request failed, if it did *)
  response : Serve.Http.response option;  (** kept for sampled requests only *)
}

let fetch ~port target = Result.to_option (Serve.Client.request ~port target)

(* One phase over [reqs] ((route, target) array). [rate = None] sends
   back to back (the warm-up); otherwise request i is due at
   start + i / rate. Only the responses [keep] selects are retained, so
   the generator's own heap stays small. *)
let phase ?(keep = fun _ -> false) ~port ~rate reqs =
  let n = Array.length reqs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let start = clock () +. 0.002 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let route, target = reqs.(i) in
        let due =
          match rate with
          | Some rate -> Sched.due_time ~start ~rate i
          | None -> clock ()
        in
        let wait = due -. clock () in
        if wait > 0.0 then Retry.sleepf wait;
        let sent = clock () in
        let response = Serve.Client.request ~port target in
        let finished = clock () in
        let error =
          match response with
          | Ok r when r.status = 200 -> None
          | Ok r ->
              Some
                (Printf.sprintf "status %d: %s" r.status
                   (List.hd (String.split_on_char '\n' r.body)))
          | Error e -> Some e
        in
        let hit =
          match response with
          | Ok r -> Serve.Http.header r "x-cache" = Some "hit"
          | Error _ -> false
        in
        let response = if keep i then Result.to_option response else None in
        results.(i) <-
          Some
            { sample = { Sched.due; sent; finished; ok = error = None }; route; target; hit; error; response };
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init (host_cores ()) (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Array.to_list results |> List.filter_map Fun.id

let draw sampler n =
  Array.init n (fun _ ->
      let route, target = Sampler.next sampler in
      (Sampler.route_name route, target))

(* --- /metrics --- *)

let scrape ~port =
  match fetch ~port "/metrics" with
  | Some r when r.status = 200 ->
      List.filter_map
        (fun l ->
          match String.rindex_opt l ' ' with
          | Some i ->
              Option.map
                (fun v -> (String.sub l 0 i, v))
                (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None)
        (String.split_on_char '\n' r.body)
  | _ -> []

let metric m name = Option.value ~default:0.0 (List.assoc_opt name m)

(* --- correctness: a seeded sample of responses against a fresh
   in-process service over a freshly loaded store, compared in the form
   the client sees (rendered to the wire and parsed back) --- *)

let without_cache_header (r : Serve.Http.response) =
  (r.status, List.filter (fun (k, _) -> k <> "x-cache") r.headers, r.body)

let verify (inp : Inputs.t) sampled =
  in_child (fun () ->
      let wh, _ = Warehouse.load_dir ~config:(Pipeline.config ()) (Inputs.full_store inp) in
      let service =
        Serve.Service.create ~pool:(Aladin_par.Pool.create ~domains:1 ()) (Engine.create wh)
      in
      List.filter_map
        (fun (target, (got : Serve.Http.response)) ->
          let fresh = Serve.Service.handle service (Inputs.request target) in
          match Serve.Http.parse_response (Serve.Http.render fresh) with
          | Ok fresh when without_cache_header fresh = without_cache_header got -> None
          | Ok _ | Error _ -> Some ("response differs from a fresh service: " ^ target))
        sampled)

(* --- the workload --- *)

type phase_report = { rate : float; verdict : Sched.verdict; results : result list }

let measure rate results =
  {
    rate;
    results;
    verdict =
      Sched.judge ~limit:limit_s ~max_growth:max_growth_s (List.map (fun r -> r.sample) results);
  }

let ms x = 1000.0 *. x

let tail_ms (v : Sched.verdict) = match v.tail with Some (_, x) -> ms x | None -> Float.nan

let tail_label (v : Sched.verdict) =
  match v.tail with Some (p, _) -> Printf.sprintf "p%g" p | None -> "no percentile"

(* per-route server compute quantiles (misses only: the service does not
   observe cache hits) from a /metrics scrape *)
let route_layers m =
  List.concat_map
    (fun r ->
      let q label = ms (metric m (Printf.sprintf "aladin_request_seconds{route=%S,quantile=%S}" r label)) in
      [ (Printf.sprintf "access.%s.p50_ms" r, q "0.5"); (Printf.sprintf "access.%s.p99_ms" r, q "0.99") ])
    Spec.routes

let run ~seed ~seconds ~traced (inp : Inputs.t) =
  let targets = Inputs.targets inp in
  let sampler =
    Sampler.create ~seed
      (List.filter_map
         (fun (t : Inputs.target) ->
           Option.map (fun r -> (r, t.target)) (Sampler.route_of_name t.route))
         targets)
  in
  (* set-up five times and report the median; the last server takes
     the traffic *)
  let first = List.init 4 (fun _ -> let s = start_server inp in ignore (stop_server s); s) in
  let server = start_server inp in
  let stopped = ref None in
  let stop () =
    match !stopped with
    | Some st -> st
    | None ->
        let st = stop_server server in
        stopped := Some st;
        st
  in
  Fun.protect ~finally:(fun () -> if !stopped = None then ignore (stop ())) @@ fun () ->
  let setups = server :: first in
  let port = server.port in
  let warm = phase ~port ~rate:None (draw sampler warmup_requests) in
  let sat, sat_s = timed (fun () -> phase ~port ~rate:None (draw sampler saturation_requests)) in
  let before = scrape ~port in
  (* traced runs scrape /metrics after every rate: the cache hit ratio
     of each rate, and the time the scrapes cost *)
  let scrape_s = ref 0.0 and last = ref before and per_rate = ref [] in
  let mark rate =
    if traced then begin
      let m, d = timed (fun () -> scrape ~port) in
      scrape_s := !scrape_s +. d;
      let delta name = metric m name -. metric !last name in
      let hits = delta "aladin_cache_hits_total" and misses = delta "aladin_cache_misses_total" in
      per_rate :=
        Printf.sprintf "rate %6.0f/s: cache hit ratio %.3f (/metrics after the rate)" rate
          (hits /. Float.max 1.0 (hits +. misses))
        :: !per_rate;
      last := m
    end
  in
  let t_traffic = clock () in
  let at ?keep rate n =
    let p = measure rate (phase ?keep ~port ~rate:(Some rate) (draw sampler n)) in
    mark rate;
    p
  in
  (* a seeded sample of the low phase's responses is checked afterwards *)
  let low =
    at ~keep:(fun i -> i mod 40 = seed mod 40) low_rate
      (headline_requests ~seconds ~share:0.35 low_rate)
  in
  let high = at high_rate (headline_requests ~seconds ~share:0.15 high_rate) in
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let p = at rate ladder_requests in
        if p.verdict.meets then climb (p :: acc) rest else List.rev (p :: acc)
  in
  let ladder_steps = climb [] ladder in
  let traffic_s = clock () -. t_traffic in
  let after = scrape ~port in
  let stats = stop () in
  let measured = List.concat_map (fun p -> p.results) (low :: high :: ladder_steps) in
  let all = warm @ sat @ measured in
  let sampled = List.filter_map (fun r -> Option.map (fun resp -> (r.target, resp)) r.response) low.results in
  let mismatches = verify inp sampled in
  let refused = List.filter (fun r -> not r.sample.ok) all in
  let problems =
    mismatches
    @ List.map
        (fun r ->
          Printf.sprintf "request %s failed: %s" r.target (Option.value ~default:"" r.error))
        (List.filteri (fun i _ -> i < 5) refused)
  in
  let max_rps =
    List.fold_left (fun acc p -> if p.verdict.meets then Float.max acc p.rate else acc) 0.0 ladder_steps
  in
  let median_of f = Stats.median (List.map f setups) in
  let delta name = metric after name -. metric before name in
  let hits = delta "aladin_cache_hits_total" and misses = delta "aladin_cache_misses_total" in
  let wire =
    Stats.median
      (List.filter_map
         (fun r -> if r.hit then Some (r.sample.finished -. r.sample.sent) else None)
         measured)
  in
  let values =
    [
      ("setup_s", median_of (fun s -> s.setup_s));
      ("p50_ms.low", ms low.verdict.p50);
      ("p99_ms.low", tail_ms low.verdict);
      ("p50_ms.high", ms high.verdict.p50);
      ("p99_ms.high", tail_ms high.verdict);
      ("max_rps", max_rps);
      ("peak_rss_mb", stats.rss_mb);
      ("closed_ms", ms sat_s /. float_of_int (List.length sat));
    ]
  in
  let layers =
    [
      ("store.load_s", median_of (fun s -> s.load_s));
      ("access.engine_create_s", median_of (fun s -> s.create_s));
      ("serve.cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("serve.cache.evictions", delta "aladin_cache_evictions_total");
      ("serve.batches", float_of_int stats.batches);
      ("serve.max_batch", float_of_int stats.max_batch);
      ("serve.rejected", float_of_int stats.rejected);
      ("serve.wire_ms", ms wire);
      ("trace.overhead_pct", 100.0 *. !scrape_s /. traffic_s);
    ]
    @ route_layers after @ stats.gc
  in
  let phase_note (p : phase_report) =
    let v = p.verdict in
    Printf.sprintf
      "rate %6.0f/s: %d requests, p50 %.3f ms, %s %.3f ms, %d failed, max lateness %.3f ms, lag growth %.3f ms, %s"
      p.rate v.requests (ms v.p50) (tail_label v) (tail_ms v) v.failed (ms v.max_lateness)
      (ms v.lag_growth)
      (if v.meets then "meets the limit" else "misses the limit")
  in
  let notes =
    Printf.sprintf "targets: %d distinct against a %d-entry cache (%.1fx)"
      (Sampler.distinct_targets sampler) cache_capacity
      (float_of_int (Sampler.distinct_targets sampler) /. float_of_int cache_capacity)
    :: Printf.sprintf "warm-up: %d requests back to back" (List.length warm)
    :: Printf.sprintf "closed loop: %d requests back to back, %d in flight, %.3f s: %.0f req/s"
         (List.length sat) (host_cores ()) sat_s (float_of_int (List.length sat) /. sat_s)
    :: List.map phase_note (low :: high :: ladder_steps)
    @ List.rev !per_rate
  in
  {
    values;
    layers;
    attempted = List.length all + List.length sampled;
    failed = List.length refused + List.length mismatches;
    problems;
    notes;
  }
