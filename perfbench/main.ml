(* The repository benchmark.

     bash perfbench/run.sh \
       --workload integrate_cold|delta_ops|serve_zipf|all \
       --seed N --seconds S --trace 0|1

   Prints the workload's metrics by name with units, then, as its last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
   traced run adds the per-layer ones (see Spec). A run whose outputs
   fail a correctness check prints "correct": false and exits 1.
   [--spec] prints BENCHMARK.json. *)

open Common
module Stats = Perfbench_lib.Stats

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload integrate_cold|delta_ops|serve_zipf|all --seed N --seconds S \
     --trace 0|1\n       main.exe --spec";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest when int_of_string n >= 0 -> go { acc with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { acc with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { acc with trace = t = "1" } rest
    | _ -> usage ()
  in
  try go { workload = ""; seed = 42; seconds = float_of_int Spec.run_seconds; trace = false } argv
  with Failure _ -> usage ()

(* --- reporting --- *)

let number v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0"

let metrics_json (metrics : Spec.metric list) values =
  String.concat ", "
    (List.map
       (fun (mt : Spec.metric) ->
         let v = Option.value ~default:0.0 (List.assoc_opt mt.name values) in
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spec.json_string mt.name) (number v)
           (Spec.json_string mt.unit))
       metrics)

let result_line ~correct ~attempted ~failed metrics values =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (metrics_json metrics values)

let show name unit v =
  Printf.printf "  %-34s %14s %s\n" name (if Float.is_finite v then number v else "n/a") unit

let get values name = Option.value ~default:Float.nan (List.assoc_opt name values)

(* --- workloads --- *)

let meta (inp : Inputs.t) ~seed ~gen_s =
  let srcs = Inputs.sources inp in
  Printf.printf
    "seed %d (corpus %d of %d), host_cores %d, pool %d domains (serve generator: %d threads), OCaml %s\n"
    seed inp.seed Inputs.corpora (host_cores ()) (host_cores ()) (host_cores ()) Sys.ocaml_version;
  Printf.printf "corpus: %d sources, %d rows, %d input bytes (%s)\n" (List.length srcs)
    (List.fold_left (fun a (s : Inputs.source) -> a + s.rows) 0 srcs)
    (List.fold_left (fun a (s : Inputs.source) -> a + s.bytes) 0 srcs)
    (String.concat ", " (List.map (fun (s : Inputs.source) -> s.name) srcs));
  Printf.printf "input generation: %.2f s (cached per corpus and build, never counted in a metric)\n" gen_s

(* medians over repetitions; counts and failures summed *)
let aggregate (reps : outcome list) =
  let names = match reps with r :: _ -> List.map fst r.values | [] -> [] in
  {
    values =
      List.map
        (fun n -> (n, Stats.median (List.filter_map (fun r -> List.assoc_opt n r.values) reps)))
        names;
    layers = [];
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 reps;
    failed = List.fold_left (fun a r -> a + r.failed) 0 reps;
    problems = List.concat_map (fun r -> r.problems) reps;
    notes = List.concat_map (fun r -> r.notes) reps;
  }

(* Untimed generation of what the workload reads, then the corpus shape. *)
let prepare args inp steps =
  let gen_s = List.fold_left (fun acc s -> acc +. Inputs.ensure inp s) 0.0 steps in
  meta inp ~seed:args.seed ~gen_s

(* The seed-commit reference of the corpus. Refs covers every corpus
   seed, so a miss means the table is incomplete: a usage error. *)
let reference table (inp : Inputs.t) =
  match table inp.seed with
  | Some r -> r
  | None ->
      log "refs.ml has no seed-commit reference for corpus %d" inp.seed;
      exit 2

(* A pipeline workload: repetitions until the time is used, and on a
   traced run one more traced repetition whose headline time against
   the untraced median is the tracing overhead. *)
let pipeline ~(args : args) ~headline ~rep =
  let reps =
    Pipeline.repeat ~seconds:args.seconds ~min_reps:2 (fun i -> rep ~traced:false ~first:(i = 0))
  in
  let agg = aggregate reps in
  let per_rep =
    Printf.sprintf "%s per repetition: %s" headline
      (String.concat ", "
         (List.map (fun (r : outcome) -> Printf.sprintf "%.3f s" (get r.values headline)) reps))
  in
  let traced = if args.trace then Some (rep ~traced:true ~first:false) else None in
  let base = get agg.values headline in
  let layers, overhead =
    match traced with
    | None -> ([], [])
    | Some t ->
        let traced_s = get t.values headline in
        ( t.layers @ [ ("trace.overhead_pct", 100.0 *. (traced_s -. base) /. base) ] @ agg.values,
          [
            Printf.sprintf
              "tracing overhead: traced %s %.3f s against the untraced median %.3f s (the \
               untraced repetitions above show the run-to-run noise it sits in)"
              headline traced_s base;
          ] )
  in
  let all = aggregate (reps @ Option.to_list traced) in
  ( { all with values = agg.values; layers; notes = (per_rep :: overhead) @ agg.notes },
    List.length reps )

let integrate_cold args inp =
  let expected = reference Refs.cold inp in
  prepare args inp [ "corpus" ];
  let o, n =
    pipeline ~args ~headline:"integrate_s" ~rep:(fun ~traced ~first ->
        Pipeline.integrate_rep ~traced ~first inp expected)
  in
  Printf.printf "links checked against the seed-commit reference: %d links, %d fks\n" expected.links
    expected.fks;
  let v = o.values in
  Printf.printf "end-to-end (median of %d cold integrations):\n" n;
  show "integrate_s" "s" (get v "integrate_s");
  show "setup_s (load_dir of the saved store)" "s" (get v "setup_s");
  show "peak_rss_mb" "MB" (get v "peak_rss_mb");
  (o, [ ("setup_s", get v "setup_s"); ("op_ms", 1000.0 *. get v "integrate_s"); ("peak_rss_mb", get v "peak_rss_mb") ])

let delta_ops args inp =
  let expected = reference Refs.delta inp in
  prepare args inp [ "corpus"; "base" ];
  let o, n =
    pipeline ~args ~headline:"delta_cycle_s" ~rep:(fun ~traced ~first:_ ->
        Pipeline.delta_rep ~traced inp expected)
  in
  Printf.printf
    "final links checked against the seed-commit reference (cold rebuild of the final sources)\n";
  Printf.printf "uniprot edit: %d changed rows\n" (Inputs.changed_rows inp);
  let v = o.values in
  Printf.printf "end-to-end (median of %d delta cycles):\n" n;
  show "delta_add_s" "s" (get v "delta_add_s");
  show "delta_update_s" "s" (get v "delta_update_s");
  show "setup_s (load_dir of the base store)" "s" (get v "setup_s");
  show "peak_rss_mb" "MB" (get v "peak_rss_mb");
  ( o,
    [ ("setup_s", get v "setup_s"); ("op_ms", 1000.0 *. get v "delta_cycle_s"); ("peak_rss_mb", get v "peak_rss_mb") ] )

let serve_zipf args inp =
  prepare args inp [ "corpus"; "full"; "targets" ];
  let o = Serve_zipf.run ~seed:args.seed ~seconds:args.seconds ~traced:args.trace inp in
  let v = o.values in
  Printf.printf "end-to-end (open loop, latency from each request's scheduled send time):\n";
  show "p50_ms.low" "ms" (get v "p50_ms.low");
  show "p99_ms.low" "ms" (get v "p99_ms.low");
  show "p50_ms.high" "ms" (get v "p50_ms.high");
  show "p99_ms.high" "ms" (get v "p99_ms.high");
  show "max_rps" "req/s" (get v "max_rps");
  show "closed_ms (closed loop, per request)" "ms" (get v "closed_ms");
  show "setup_s (start to on_ready, median of 5)" "s" (get v "setup_s");
  show "peak_rss_mb (server child)" "MB" (get v "peak_rss_mb");
  let o = if args.trace then { o with layers = o.layers @ v } else o in
  (o, [ ("setup_s", get v "setup_s"); ("op_ms", get v "closed_ms"); ("peak_rss_mb", get v "peak_rss_mb") ])

(* The whole report of one run, for later reading:
   _perfbench/results/<workload>-seed<N>-trace<T>.json *)
let write_detail args (inp : Inputs.t) name (w : Spec.workload) (o : outcome) e2e =
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  let kv k v = Spec.json_string k ^ ": " ^ v in
  let nums xs = obj (List.map (fun (k, v) -> kv k (number v)) xs) in
  let strs xs = "[" ^ String.concat ", " (List.map Spec.json_string xs) ^ "]" in
  let dir = Filename.concat work_root "results" in
  mkdir_p dir;
  write_file
    (Filename.concat dir (Printf.sprintf "%s-seed%d-trace%d.json" name args.seed (if args.trace then 1 else 0)))
    (obj
       [
         kv "workload" (Spec.json_string name);
         kv "why" (Spec.json_string w.why);
         kv "seed" (string_of_int args.seed);
         kv "corpus" (string_of_int inp.seed);
         kv "host_cores" (string_of_int (host_cores ()));
         kv "pool_domains" (string_of_int (host_cores ()));
         kv "ocaml" (Spec.json_string Sys.ocaml_version);
         kv "attempted" (string_of_int o.attempted);
         kv "failed" (string_of_int o.failed);
         kv "end_to_end" (nums e2e);
         kv "measured" (nums o.values);
         kv "per_layer" (nums o.layers);
         kv "notes" (strs o.notes);
         kv "problems" (strs o.problems);
       ]
    ^ "\n")

let run_workload args name =
  let inp = Inputs.create ~seed:args.seed in
  let w = List.find (fun (w : Spec.workload) -> w.wname = name) Spec.workloads in
  Printf.printf "== %s: %s\n" name w.why;
  let o, e2e =
    match name with
    | "integrate_cold" -> integrate_cold args inp
    | "delta_ops" -> delta_ops args inp
    | _ -> serve_zipf args inp
  in
  List.iter (fun l -> Printf.printf "  %s\n" l) o.notes;
  show "error_frac" "ratio" (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) o.problems;
  if args.trace then begin
    Printf.printf "per-layer (traced run; 0 where the workload does not run the layer):\n";
    List.iter
      (fun (mt : Spec.metric) -> show mt.name mt.unit (get o.layers mt.name))
      Spec.per_layer;
    List.iter (fun (m, why) -> Printf.printf "  not measured from outside: %s: %s\n" m why) Spec.unmeasured
  end;
  write_detail args inp name w o e2e;
  (o, e2e)

(* Print the refs.ml rows of one corpus seed: the cold integration of
   every source and the cold rebuild of the delta workload's final
   sources. Only needed when the input generation changes. *)
let print_references seed =
  let inp = Inputs.create ~seed in
  ignore (Inputs.ensure inp "corpus");
  let row label dirs =
    let r = in_child (fun () -> Inputs.reference_of_warehouse (Inputs.integrate_plain dirs)) in
    Printf.printf "%-5s (%d, r %S %d %d [ %s ]);\n" label inp.seed r.digest r.links r.fks
      (String.concat "; " (List.map (fun (k, n) -> Printf.sprintf "(%S, %d)" k n) r.per_kind))
  in
  row "cold" (Inputs.source_dirs inp);
  row "delta" (Inputs.final_sources inp)

let main () =
  match Array.to_list Sys.argv with
  | _ :: [ "--spec" ] -> print_string (Spec.render ())
  | _ :: [ "--reference"; seed ] -> print_references (int_of_string seed)
  | _ :: rest ->
      let args = parse rest in
      let names = List.map (fun (w : Spec.workload) -> w.wname) Spec.workloads in
      let chosen =
        if args.workload = "all" then names
        else if List.mem args.workload names then [ args.workload ]
        else usage ()
      in
      let results = List.map (fun n -> (n, run_workload args n)) chosen in
      let attempted = List.fold_left (fun a (_, (o, _)) -> a + o.attempted) 0 results in
      let failed = List.fold_left (fun a (_, (o, _)) -> a + o.failed) 0 results in
      let metrics, values =
        match results with
        | [ (_, (o, e2e)) ] -> if args.trace then (Spec.per_layer, o.layers) else (Spec.end_to_end, e2e)
        | _ ->
            (* all workloads: each metric prefixed with its workload *)
            let prefixed (n, (o, e2e)) =
              let source, metrics = if args.trace then (o.layers, Spec.per_layer) else (e2e, Spec.end_to_end) in
              List.map
                (fun (mt : Spec.metric) ->
                  ({ mt with name = n ^ "." ^ mt.name }, (n ^ "." ^ mt.name, get source mt.name)))
                metrics
            in
            List.split (List.concat_map prefixed results)
      in
      print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics values);
      exit (if failed = 0 then 0 else 1)
  | [] -> usage ()

(* A crash is not a result: report it and exit without a result line. *)
let () =
  try main ()
  with e ->
    log "error: %s" (Printexc.to_string e);
    exit 2
