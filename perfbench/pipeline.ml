(* The two pipeline workloads. Each repetition runs in its own forked
   child with a pool of [host_cores] domains and returns what it
   measured; the parent only aggregates.

   integrate_cold: import every source file, [integrate_journaled] into
   a fresh journal, [save_dir]. [integrate_s] runs from the first import
   call until [save_dir] returns. Set-up is reopening the result:
   [load_dir] of the store just saved, what every later run (serve,
   add) pays first.

   delta_ops: [load_dir] a store holding every source but [pdb] (the
   set-up), then op 1 adds [pdb] and saves, op 2 replaces [uniprot] with
   its seeded edit and saves. Each op's time includes its import and its
   save. *)

open Aladin
module Trace = Aladin_obs.Trace
module Run_report = Aladin_resilience.Run_report
module Metrics = Aladin_eval.Metrics
open Common
module Layers = Perfbench_lib.Layers
module Stats = Perfbench_lib.Stats

let config () = { Config.default with domains = host_cores () }

(* a working directory private to this child *)
let run_dir () =
  let d = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

(* Bench-side spans around the public calls, on the traced repetition
   only; the untraced ones pay nothing. *)
let span tr name f = match tr with Some tr -> Trace.with_span tr name f | None -> f ()

type checks = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let checks () = { attempted = 0; failed = 0; problems = [] }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.problems <- what :: c.problems
  end

let check_report c (r : Run_report.t) =
  check c (Run_report.is_clean r)
    (Printf.sprintf "run report of %s is not clean" r.Run_report.source)

let check_reference c ~what (expected : Inputs.reference) (got : Inputs.reference) =
  check c (got = expected)
    (Printf.sprintf "%s: got %d links (digest %s, %d fks), expected %d (digest %s, %d fks)"
       what got.links got.digest got.fks expected.links expected.digest expected.fks)

let import_checked c tr name dir =
  let imp = span tr "bench.import" (fun () -> Inputs.import name dir) in
  check c (imp.record_errors = []) (Printf.sprintf "import of %s dropped records" name);
  imp.catalog

let save_checked c tr w dir =
  let r = span tr "bench.save_dir" (fun () -> Warehouse.save_dir w dir) in
  check c (Result.is_ok r)
    (match r with Error e -> "save_dir: " ^ e | Ok () -> "")

let load_checked c tr dir =
  let w, lr = span tr "bench.load_dir" (fun () -> Warehouse.load_dir ~config:(config ()) dir) in
  check c (Aladin_store.Load_report.is_clean lr) ("load_dir of " ^ dir ^ " degraded");
  w

(* Set-up is timed [loads] times per repetition and reported as the
   median: one load_dir is a fraction of a second, too short to read
   steadily on a shared host. Only the last load is traced, so
   store.load_s is the time of one load. Returns the last warehouse. *)
let loads = 3

let load_median c tr dir =
  let rec go i acc =
    let last = i = loads - 1 in
    let w, d = timed (fun () -> load_checked c (if last then tr else None) dir) in
    if last then (w, Stats.median (d :: acc)) else go (i + 1) (d :: acc)
  in
  go 0 []

let store_bytes_written () =
  let b, _, _ = Aladin_store.Fault.counters () in
  float_of_int b

(* precision and recall per link kind against the generator's gold
   standard; only xref, seq and duplicate links have one *)
let gold_scores inp w =
  let key (o : Aladin_links.Objref.t) = Aladin_datagen.Gold.obj_key ~source:o.source ~accession:o.accession in
  List.map
    (fun kind ->
      let predicted =
        List.filter_map
          (fun (l : Aladin_links.Link.t) ->
            if Aladin_links.Link.kind_name l.kind = kind then
              Some (Metrics.pair_key (key l.src) (key l.dst))
            else None)
          (Warehouse.links w)
      in
      let s = Metrics.evaluate ~expected:(Inputs.gold inp kind) ~predicted in
      Printf.sprintf "gold %-9s precision %.4f recall %.4f" kind s.precision s.recall)
    Inputs.gold_kinds
  @ [ "gold text, shared-term, mention: the generator records no gold standard for these kinds" ]

let per_kind_values (r : Inputs.reference) =
  List.map (fun (k, n) -> ("linkdisc.links." ^ k, float_of_int n)) r.per_kind

let finish (c : checks) ?(layers = []) ?(notes = []) values =
  { values; layers; attempted = c.attempted; failed = c.failed; problems = List.rev c.problems; notes }

(* --- integrate_cold --- *)

let integrate_rep ~traced ~first (inp : Inputs.t) (expected : Inputs.reference) =
  in_child (fun () ->
      let c = checks () in
      let tr = if traced then Some (Trace.create ~name:"integrate_cold" ()) else None in
      let dir = run_dir () in
      let journal = Filename.concat dir "journal" and store = Filename.concat dir "store" in
      let dirs = Inputs.source_dirs inp in
      Aladin_store.Fault.reset_counters ();
      let gc0 = Gc.quick_stat () in
      let t0 = clock () in
      let catalogs = List.map (fun (n, d) -> import_checked c tr n d) dirs in
      let res =
        span tr "bench.integrate_journaled" (fun () ->
            Warehouse.integrate_journaled ~config:(config ()) ?trace:tr ~source_paths:dirs
              ~journal catalogs)
      in
      let w = match res with Ok (w, _) -> w | Error e -> raise (Child_failed e) in
      save_checked c tr w store;
      let integrate_s = clock () -. t0 in
      let gc1 = Gc.quick_stat () in
      let rss = vm_hwm_mb () in
      let written = store_bytes_written () in
      List.iter (check_report c) (Warehouse.run_reports w);
      let got = Inputs.reference_of_warehouse w in
      check_reference c ~what:"cold integration" expected got;
      let w2, load_s = load_median c tr store in
      check_reference c ~what:"save/load round trip" got (Inputs.reference_of_warehouse w2);
      let input_bytes = float_of_int (List.fold_left (fun a s -> a + s.Inputs.bytes) 0 (Inputs.sources inp)) in
      let journal_bytes = float_of_int (du journal) in
      let audit = Warehouse.last_delta w in
      let pairs f = match audit with Some a -> float_of_int (List.length (f a)) | None -> 0.0 in
      let values =
        [
          ("integrate_s", integrate_s);
          ("setup_s", load_s);
          ("peak_rss_mb", rss);
          ("formats.input_bytes", input_bytes);
          ("store.journal_bytes", journal_bytes);
          ("store.snapshot_bytes", float_of_int (du store));
          ("store.write_amp", written /. input_bytes);
          ("core.delta.recomputed_pairs", pairs (fun a -> a.Delta.recomputed_pairs));
          ("core.delta.reused_pairs", pairs (fun a -> a.Delta.reused_pairs));
        ]
        @ per_kind_values got @ Layers.gc_delta gc0 gc1
      in
      let layers = match tr with Some tr -> Layers.of_trace tr | None -> [] in
      let notes = if first then gold_scores inp w else [] in
      rm_rf dir;
      finish c ~layers ~notes values)

(* --- delta_ops --- *)

let delta_rep ~traced (inp : Inputs.t) (expected : Inputs.reference) =
  in_child (fun () ->
      let c = checks () in
      let tr = if traced then Some (Trace.create ~name:"delta_ops" ()) else None in
      let dir = run_dir () in
      let store = Filename.concat dir "store" in
      copy_tree (Inputs.base_store inp) store;
      let changed_rows = Inputs.changed_rows inp in
      Aladin_store.Fault.reset_counters ();
      let gc0 = Gc.quick_stat () in
      let w, load_s = load_median c tr store in
      let t0 = clock () in
      let cat = import_checked c tr Inputs.held_out (Inputs.source_dir inp Inputs.held_out) in
      let r = span tr "bench.add_source" (fun () -> Warehouse.add_source ?trace:tr w cat) in
      check_report c r;
      save_checked c tr w store;
      let add_s = clock () -. t0 in
      let add_audit = Warehouse.last_delta w in
      let t1 = clock () in
      let cat = import_checked c tr Inputs.edited (Inputs.edit_dir inp) in
      let upd =
        span tr "bench.update_source" (fun () ->
            let upd = Warehouse.update_source w cat ~changed_rows in
            (* update_source takes no trace: fold the one it kept into ours *)
            (match (tr, Warehouse.last_trace w) with
            | Some tr, Some last ->
                List.iter (Trace.attach_span tr) (Trace.roots last);
                List.iter (fun (n, v) -> Trace.incr tr ~by:v n) (Trace.counters last)
            | _ -> ());
            upd)
      in
      (match upd.outcome with
      | `Reanalyzed r -> check_report c r
      | `Deferred -> check c false "update of uniprot was deferred (too few changed rows)");
      save_checked c tr w store;
      let update_s = clock () -. t1 in
      let gc1 = Gc.quick_stat () in
      let rss = vm_hwm_mb () in
      let written = store_bytes_written () in
      check c (Warehouse.sources w = Inputs.final_order inp)
        ("source order after the delta ops: " ^ String.concat "," (Warehouse.sources w));
      let got = Inputs.reference_of_warehouse w in
      check_reference c ~what:"delta ops vs cold rebuild of the final sources" expected got;
      let pairs f =
        List.fold_left
          (fun acc a -> match a with Some a -> acc + List.length (f a) | None -> acc)
          0 [ add_audit; upd.delta ]
        |> float_of_int
      in
      let changed_bytes =
        float_of_int (du (Inputs.source_dir inp Inputs.held_out) + du (Inputs.edit_dir inp))
      in
      let values =
        [
          ("delta_add_s", add_s);
          ("delta_update_s", update_s);
          ("delta_cycle_s", add_s +. update_s);
          ("setup_s", load_s);
          ("peak_rss_mb", rss);
          ("formats.input_bytes", changed_bytes);
          ("store.snapshot_bytes", float_of_int (du store));
          ("store.write_amp", written /. changed_bytes);
          ("core.delta.recomputed_pairs", pairs (fun a -> a.Delta.recomputed_pairs));
          ("core.delta.reused_pairs", pairs (fun a -> a.Delta.reused_pairs));
        ]
        @ per_kind_values got @ Layers.gc_delta gc0 gc1
      in
      let layers = match tr with Some tr -> Layers.of_trace tr | None -> [] in
      rm_rf dir;
      finish c ~layers values)

(* Repeat [f] until [seconds] are used up (at least [min_reps] times),
   never starting a repetition the remaining time cannot hold. *)
let repeat ~seconds ~min_reps f =
  let start = clock () in
  let rec go acc i last =
    let elapsed = clock () -. start in
    if i >= min_reps && elapsed +. last > seconds then List.rev acc
    else
      let r, d = timed (fun () -> f i) in
      go (r :: acc) (i + 1) d
  in
  go [] 0 0.0
