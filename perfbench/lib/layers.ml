(* Per-layer attribution of one traced run.

   The numbers come from three places only: the bench's own spans
   around the public calls it makes ("bench.*"), the spans and counters
   the warehouse already records into the caller's trace, and the
   server's /metrics (see Serve_zipf). Nothing here adds an instrument
   to the program. *)

module Trace = Aladin_obs.Trace
module Span = Aladin_obs.Span

(* which layer (lib/ directory) a span's self time belongs to *)
let layer_of_span = function
  | "bench.import" -> "formats"
  | "profile" | "accession candidates" | "fk inference" | "primary choice"
  | "primary discovery" | "secondary discovery" ->
      "discovery"
  | "link discovery" | "xref pass" | "seq pass" | "text pass" | "onto pass" -> "linkdisc"
  | "duplicate detection" -> "dupdetect"
  | "par.worker" -> "par"
  | "bench.integrate_journaled" | "bench.save_dir" | "bench.load_dir" -> "store"
  | _ -> "core"

let self_layers = [ "formats"; "discovery"; "linkdisc"; "dupdetect"; "par"; "store"; "core" ]

(* the warehouse's step spans: what a journaled or delta call spends
   outside them is the journal's or the core bookkeeping's *)
let step_spans =
  [ "import"; "primary discovery"; "secondary discovery"; "link discovery"; "duplicate detection" ]

let all_spans roots =
  let rec go acc sp = List.fold_left go (sp :: acc) (Span.children sp) in
  List.rev (List.fold_left go [] roots)

let sum_by name spans =
  List.fold_left
    (fun acc sp -> if Span.name sp = name then acc +. Span.duration sp else acc)
    0.0 spans

(* wall time of every span named [name] not covered by its step-span
   children *)
let residual name spans =
  List.fold_left
    (fun acc sp ->
      if Span.name sp <> name then acc
      else
        let steps =
          List.filter_map
            (fun c ->
              if List.mem (Span.name c) step_spans then Some (Selftime.interval c) else None)
            (Span.children sp)
        in
        acc +. Selftime.residual ~wall:(Selftime.interval sp) steps)
    0.0 spans

(* par.worker spans of one fan-out are attached consecutively, worker 0
   first; a worker index that does not increase starts the next one *)
let fan_outs spans =
  List.concat_map
    (fun parent ->
      let workers =
        List.filter (fun c -> Span.name c = "par.worker") (Span.children parent)
      in
      let idx sp =
        Option.value ~default:0
          (Option.bind (List.assoc_opt "worker" (Span.attrs sp)) int_of_string_opt)
      in
      let groups, cur, _ =
        List.fold_left
          (fun (groups, cur, last) sp ->
            let i = idx sp in
            if i <= last && cur <> [] then (List.rev cur :: groups, [ sp ], i)
            else (groups, sp :: cur, i))
          ([], [], -1) workers
      in
      List.rev (if cur = [] then groups else List.rev cur :: groups))
    spans

(* max over mean worker busy time, summed over fan-outs so the big ones
   weigh most; 1.0 is perfect balance *)
let skew spans =
  let sum_max, sum_mean =
    List.fold_left
      (fun (smax, smean) group ->
        let ds = List.map Span.duration group in
        let n = float_of_int (List.length ds) in
        ( smax +. List.fold_left Float.max 0.0 ds,
          smean +. (List.fold_left ( +. ) 0.0 ds /. n) ))
      (0.0, 0.0) (fan_outs spans)
  in
  if sum_mean > 0.0 then sum_max /. sum_mean else 0.0

let counter tr name = float_of_int (Trace.counter_value tr name)

(* The per-layer metrics a pipeline trace yields. *)
let of_trace tr =
  let spans = all_spans (Trace.roots tr) in
  let s = sum_by in
  let self =
    Selftime.fold
      (fun acc sp self ->
        let l = layer_of_span (Span.name sp) in
        (l, self) :: acc)
      [] (Trace.roots tr)
  in
  let self_of l = List.fold_left (fun acc (l', v) -> if l = l' then acc +. v else acc) 0.0 self in
  let candidates = counter tr "dup.candidates_checked" in
  [
    ("formats.import_s", s "bench.import" spans);
    ("discovery.primary_s", s "primary discovery" spans -. s "fk inference" spans);
    ("discovery.fk_inference_s", s "fk inference" spans);
    ("discovery.secondary_s", s "secondary discovery" spans);
    ("linkdisc.xref_s", s "xref pass" spans);
    ("linkdisc.seq_s", s "seq pass" spans);
    ("linkdisc.text_s", s "text pass" spans);
    ("linkdisc.onto_s", s "onto pass" spans);
    ("linkdisc.xref.pairs_compared", counter tr "xref.pairs_compared");
    ("linkdisc.seq.sequences_indexed", counter tr "seq.sequences_indexed");
    ("linkdisc.seq.hits", counter tr "seq.pairs_verified");
    ("linkdisc.text.documents", counter tr "text.documents");
    ("dupdetect.s", s "duplicate detection" spans);
    ("dupdetect.candidates", candidates);
    ("dupdetect.links", counter tr "dup.links");
    ( "dupdetect.links_per_candidate",
      if candidates > 0.0 then counter tr "dup.links" /. candidates else 0.0 );
    ( "core.bookkeeping_s",
      residual "bench.add_source" spans +. residual "bench.update_source" spans );
    ("store.journal_s", residual "bench.integrate_journaled" spans);
    ("store.save_s", s "bench.save_dir" spans);
    ("store.load_s", s "bench.load_dir" spans);
    ("par.busy_s", s "par.worker" spans);
    ("par.skew", skew spans);
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", self_of l)) self_layers

(* Gc.quick_stat deltas around a workload's public calls *)
let gc_names = [ "gc.minor_words"; "gc.major_words"; "gc.major_collections"; "gc.top_heap_mb" ]

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  List.combine gc_names
    [
      b.minor_words -. a.minor_words;
      b.major_words -. a.major_words;
      float_of_int (b.major_collections - a.major_collections);
      float_of_int (b.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0);
    ]
