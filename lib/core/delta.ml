(* The delta pipeline: the warehouse's ONLY link/dup path. Adding or
   updating a source recomputes exactly the source pairs that touch it
   (plus any dup pairs whose exclude-attribute sets shifted); every
   other pair's links are reused verbatim out of the pair store. A cold
   [integrate] is just this delta applied once per source, so the
   incremental result is byte-identical to a full rebuild by
   construction. *)

open Aladin_links
module Dup = Aladin_dup
module Obs = Aladin_obs
module Res = Aladin_resilience
module Report = Res.Run_report

type audit = {
  recomputed_pairs : (string * string) list;
  reused_pairs : (string * string) list;
}

type outcome = {
  link_step : Report.step_report;
  dup_step : Report.step_report;
  report : Linker.report option;
  dups : Dup.Dup_detect.result option;
  audit : audit;
  changed_kinds : Link.kind list;
}

(* --- resilience plumbing, mirroring the batch pipeline exactly ---

   Same step/pass names, same budget keys, same skip/degrade shapes: a
   run report produced by the delta path is indistinguishable from one
   the old whole-warehouse relink produced. *)

let skipped_span name =
  Obs.Trace.ambient_span name ~attrs:[ ("status", "skipped") ] (fun () -> ())

let bounded ~name ?budget f =
  Obs.Trace.ambient_span_timed name (fun () ->
      let attempts = ref 1 in
      let res =
        Res.Boundary.protect ~step:name ?budget (fun () ->
            let v, n = Res.Retry.run_counted ~step:name f in
            attempts := n;
            v)
      in
      if !attempts > 1 then
        Obs.Trace.ambient_add_attr "retry.attempts" (string_of_int !attempts);
      Obs.Trace.ambient_add_attr "status" (Res.Boundary.status_of res);
      res)

let outcome_of_children children =
  let warnings =
    List.filter_map
      (fun (s : Report.step_report) ->
        if Report.outcome_clean s.outcome then None
        else
          Some
            {
              Report.code = s.step;
              detail =
                (match s.outcome with
                | Report.Skipped r -> Report.reason_to_string r
                | Report.Failed e -> Report.error_to_string e
                | o -> Report.outcome_name o);
            })
      children
  in
  match warnings with [] -> Report.Ok | ws -> Report.Degraded ws

(* one link pass over its share of the recomputed pairs; identical
   envelope to the batch linker's pass runner *)
let pass ~enabled ~budget name f =
  if not enabled then (None, Report.step name (Report.Skipped Report.Disabled))
  else
    match budget with
    | Some b when b <= 0.0 ->
        skipped_span name;
        (None, Report.step name (Report.Skipped Report.Budget_zero))
    | _ -> (
        let res, secs =
          Obs.Trace.ambient_span_timed name (fun () ->
              let res = Res.Boundary.protect ~step:name ?budget f in
              Obs.Trace.ambient_add_attr "status" (Res.Boundary.status_of res);
              res)
        in
        Obs.Trace.ambient_observe "linkdisc.pass_seconds" secs;
        match res with
        | Ok v -> (Some v, Report.step ~seconds:secs name Report.Ok)
        | Error (Report.Timeout b) ->
            ( None,
              Report.step ~seconds:secs name
                (Report.Skipped (Report.Budget_exhausted b)) )
        | Error (Report.Crashed _ as e) ->
            (None, Report.step ~seconds:secs name (Report.Failed e)))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let links_of_kind (e : Pair_store.entry) = function
  | Link.Xref -> e.xref_links
  | Link.Seq_similarity -> e.seq_links
  | Link.Text_similarity ->
      List.filter (fun (l : Link.t) -> l.kind = Link.Text_similarity) e.text_links
  | Link.Entity_mention ->
      List.filter (fun (l : Link.t) -> l.kind = Link.Entity_mention) e.text_links
  | Link.Duplicate -> e.dup_links
  | Link.Shared_term -> []

let all_kinds =
  [ Link.Xref; Link.Seq_similarity; Link.Text_similarity; Link.Entity_mention;
    Link.Shared_term; Link.Duplicate ]

(* what one successful link phase learned, for report synthesis *)
type link_run = {
  passes : Report.step_report list;
  xref_ran : bool;
  xref_attrs : int;
  xref_pairs : int;
  seq_ran : bool;
  seq_batch : (Seq_links.seq_field list * int * int) option;
      (* batch fallback only: fields, sequences_indexed, pairs_verified *)
  text_ran : bool;
  text_docs : int;
  text_mentions : int;
  onto_ran : bool;
  onto_hubs : int;
}

let relink ~(cfg : Config.t) ~pool ~profiles ~source_order ~store ~changed () =
  let budgets = cfg.budgets in
  let lp = cfg.linker in
  let others = List.filter (fun s -> s <> changed) source_order in
  (* the self pair only ever carries within-source links, which exist
     only when a pass runs with cross_source_only off *)
  let self_needed =
    (lp.enable_text && not lp.text.cross_source_only)
    || (lp.enable_seq && not lp.seq.cross_source_only)
  in
  let link_pairs =
    List.sort_uniq compare
      (List.map (fun x -> Pair_store.canon x changed) others
      @ (if self_needed then [ (changed, changed) ] else []))
  in
  let current_entry (a, b) =
    match Pair_store.find store a b with
    | Some e -> e
    | None -> Pair_store.empty_entry
  in
  (* pre-run snapshots, for the per-kind change diff that drives typed
     cache invalidation — and the exclude-attribute sets before the new
     correspondences land, which decide below which dup pairs are stale *)
  let old_link_entries = List.map (fun p -> (p, current_entry p)) link_pairs in
  let old_onto = Pair_store.onto store in
  let excludes_of () =
    List.map
      (fun s -> (s, Pair_store.exclude_triples store ~source:s))
      source_order
  in
  let old_excludes = excludes_of () in
  let incremental = cfg.incremental_seq && lp.enable_seq in

  (* --- the link phase: three pairwise passes, commit, then the global
     shared-term pass over the committed xref view --- *)
  let clear_link_fields () =
    List.iter
      (fun ((a, b) as p) ->
        let e = current_entry p in
        Pair_store.set store a b
          { e with Pair_store.xref_links = []; correspondences = [];
            seq_links = []; text_links = [] })
      link_pairs
  in
  let run_link_passes () =
    let xref_staged, xref_step =
      pass ~enabled:lp.enable_xref ~budget:budgets.xref_pass "xref pass"
        (fun () ->
          let per =
            List.map
              (fun ((a, b) as p) ->
                if a = b then
                  ( p,
                    { Xref_disc.links = []; correspondences = [];
                      attributes_scanned = 0; pairs_compared = 0 } )
                else
                  (p, Xref_disc.discover_between ~params:lp.xref ~pool profiles ~a ~b))
              link_pairs
          in
          let rs = List.map snd per in
          Obs.Trace.ambient_incr
            ~by:(sum (fun (r : Xref_disc.result) -> r.attributes_scanned) rs)
            "xref.attributes_scanned";
          Obs.Trace.ambient_incr
            ~by:(sum (fun (r : Xref_disc.result) -> r.pairs_compared) rs)
            "xref.pairs_compared";
          Obs.Trace.ambient_incr
            ~by:(sum (fun (r : Xref_disc.result) -> List.length r.correspondences) rs)
            "xref.correspondences_accepted";
          Obs.Trace.ambient_incr
            ~by:(sum (fun (r : Xref_disc.result) -> List.length r.links) rs)
            "xref.links";
          per)
    in
    let seq_staged, seq_step =
      pass ~enabled:lp.enable_seq ~budget:budgets.seq_pass "seq pass" (fun () ->
          if incremental then begin
            (* index the changed source alone and probe it with every
               other source's sequences; the reused pairs' links are
               already in the store *)
            let fresh =
              Seq_links.discover_source ~params:lp.seq ~pool profiles
                ~source:changed
            in
            (* every fresh link touches the changed source, so this
               partition covers them all; [fresh] is deduplicated and
               sorted, and so is each part *)
            ( List.map
                (fun p ->
                  ( p,
                    List.filter
                      (fun (l : Link.t) ->
                        Pair_store.canon l.src.source l.dst.source = p)
                      fresh ))
                link_pairs,
              None )
          end
          else begin
            let per =
              List.map
                (fun ((a, b) as p) ->
                  (p, Seq_links.discover_between ~params:lp.seq ~pool profiles ~a ~b))
                link_pairs
            in
            let rs = List.map snd per in
            Obs.Trace.ambient_incr
              ~by:(sum (fun (r : Seq_links.result) -> r.sequences_indexed) rs)
              "seq.sequences_indexed";
            Obs.Trace.ambient_incr
              ~by:(sum (fun (r : Seq_links.result) -> r.pairs_verified) rs)
              "seq.pairs_verified";
            Obs.Trace.ambient_incr
              ~by:(sum (fun (r : Seq_links.result) -> List.length r.links) rs)
              "seq.links";
            let fields =
              List.sort_uniq compare
                (List.concat_map (fun (r : Seq_links.result) -> r.fields) rs)
            in
            ( List.map (fun (p, (r : Seq_links.result)) -> (p, r.links)) per,
              Some
                ( fields,
                  sum (fun (r : Seq_links.result) -> r.sequences_indexed) rs,
                  sum (fun (r : Seq_links.result) -> r.pairs_verified) rs ) )
          end)
    in
    let text_staged, text_step =
      pass ~enabled:lp.enable_text ~budget:budgets.text_pass "text pass"
        (fun () ->
          let per =
            List.map
              (fun ((a, b) as p) ->
                if a = b && lp.text.cross_source_only then
                  (p, { Text_links.links = []; documents = 0; mention_links = 0 })
                else
                  (p, Text_links.discover_between ~params:lp.text ~pool profiles ~a ~b))
              link_pairs
          in
          let rs = List.map snd per in
          Obs.Trace.ambient_incr
            ~by:(sum (fun (r : Text_links.result) -> r.documents) rs)
            "text.documents";
          Obs.Trace.ambient_incr
            ~by:(sum (fun (r : Text_links.result) -> List.length r.links) rs)
            "text.links";
          per)
    in
    (* commit the three pairwise passes: a recomputed pair's lists are
       replaced wholesale (a skipped pass leaves them empty, exactly as
       a from-scratch run under the same config would); duplicate fields
       are carried until the dup phase below rewrites them *)
    let staged_assoc staged p = try List.assoc p staged with Not_found -> [] in
    List.iter
      (fun ((a, b) as p) ->
        let e = current_entry p in
        Pair_store.set store a b
          {
            e with
            Pair_store.xref_links =
              (match xref_staged with
              | Some per -> (
                  try (List.assoc p per).Xref_disc.links with Not_found -> [])
              | None -> []);
            correspondences =
              (match xref_staged with
              | Some per -> (
                  try (List.assoc p per).Xref_disc.correspondences
                  with Not_found -> [])
              | None -> []);
            seq_links =
              (match seq_staged with
              | Some (staged, _) -> staged_assoc staged p
              | None -> []);
            text_links =
              (match text_staged with
              | Some per -> (
                  try (List.assoc p per).Text_links.links with Not_found -> [])
              | None -> []);
          })
      link_pairs;
    (* shared-term links count shared targets across ALL xref links (a
       third source's xrefs raise a pair's confidence), so this pass
       stays global: cheap, derived from the committed xref view *)
    let onto_staged, onto_step =
      pass ~enabled:lp.enable_onto ~budget:budgets.onto_pass "onto pass"
        (fun () ->
          let xrefs =
            Link.dedup
              (List.concat_map
                 (fun (_, (e : Pair_store.entry)) -> e.xref_links)
                 (Pair_store.pairs store))
          in
          let parents = Onto_links.parents_from_profiles profiles in
          let r = Onto_links.discover ~params:lp.onto ~parents ~xrefs () in
          Obs.Trace.ambient_incr ~by:r.hub_targets_skipped
            "onto.hub_targets_skipped";
          Obs.Trace.ambient_incr ~by:(List.length r.links) "onto.links";
          r)
    in
    Pair_store.set_onto store
      (match onto_staged with Some r -> r.Onto_links.links | None -> []);
    {
      passes = [ xref_step; seq_step; text_step; onto_step ];
      xref_ran = xref_staged <> None;
      xref_attrs =
        (match xref_staged with
        | Some per -> sum (fun (_, (r : Xref_disc.result)) -> r.attributes_scanned) per
        | None -> 0);
      xref_pairs =
        (match xref_staged with
        | Some per -> sum (fun (_, (r : Xref_disc.result)) -> r.pairs_compared) per
        | None -> 0);
      seq_ran = seq_staged <> None;
      seq_batch =
        (match seq_staged with Some (_, batch) -> batch | None -> None);
      text_ran = text_staged <> None;
      text_docs =
        (match text_staged with
        | Some per -> sum (fun (_, (r : Text_links.result)) -> r.documents) per
        | None -> 0);
      text_mentions =
        (match text_staged with
        | Some per -> sum (fun (_, (r : Text_links.result)) -> r.mention_links) per
        | None -> 0);
      onto_ran = onto_staged <> None;
      onto_hubs =
        (match onto_staged with
        | Some r -> r.Onto_links.hub_targets_skipped
        | None -> 0);
    }
  in
  let link_run_opt, link_step =
    match budgets.links with
    | Some b when b <= 0.0 ->
        skipped_span "link discovery";
        clear_link_fields ();
        (None, Report.step "link discovery" (Report.Skipped Report.Budget_zero))
    | link_budget -> (
        let res, link_secs =
          bounded ~name:"link discovery" ?budget:link_budget run_link_passes
        in
        match res with
        | Ok run ->
            ( Some run,
              Report.step ~seconds:link_secs ~children:run.passes
                "link discovery"
                (outcome_of_children run.passes) )
        | Error err ->
            (* discard partial results of this run; reused pairs keep
               theirs, exactly like a from-scratch run that never
               produced them *)
            clear_link_fields ();
            ( None,
              Report.step ~seconds:link_secs "link discovery" (Report.Failed err)
            ))
  in
  (* --- the duplicate phase: a pair's stored links stay valid unless an
     endpoint's rows changed or its exclude-attribute set shifted under
     the new correspondences. A source is prepared afresh in every relink
     (linear), which reproduces, for an unchanged source under an
     unchanged exclude set, the representations its stored links were
     computed from; only dirty pairs (quadratic) are re-detected. --- *)
  let new_excludes = excludes_of () in
  let dirty s =
    s = changed || List.assoc s old_excludes <> List.assoc s new_excludes
  in
  let dirty_sources = List.filter dirty source_order in
  let dup_pairs =
    List.filter
      (fun (a, b) ->
        a <> b && (List.mem a dirty_sources || List.mem b dirty_sources))
      (Pair_store.pair_keys store)
  in
  let old_dup_entries = List.map (fun p -> (p, current_entry p)) dup_pairs in
  let clear_dup_fields () =
    List.iter
      (fun ((a, b) as p) ->
        let e = current_entry p in
        Pair_store.set store a b
          { e with Pair_store.dup_links = []; dup_candidates = 0 })
      dup_pairs
  in
  (* the representations of every source when the dup phase succeeded *)
  let dup_reprs, dup_step =
    match budgets.dups with
    | Some b when b <= 0.0 ->
        skipped_span "duplicate detection";
        clear_dup_fields ();
        ( None,
          Report.step "duplicate detection" (Report.Skipped Report.Budget_zero)
        )
    | dup_budget -> (
        let res, dup_secs =
          bounded ~name:"duplicate detection" ?budget:dup_budget (fun () ->
              (* each source is prepared once for all of this relink's
                 pairs; the table goes away with the relink *)
              let prepared =
                List.map
                  (fun s ->
                    ( s,
                      Dup.Dup_detect.prep_source ~pool
                        ~exclude_attributes:(List.assoc s new_excludes)
                        profiles ~source:s ))
                  source_order
              in
              let results =
                List.map
                  (fun ((a, b) as p) ->
                    ( p,
                      Dup.Dup_detect.detect_between ~params:cfg.dup ~pool
                        (List.assoc a prepared) (List.assoc b prepared) ))
                  dup_pairs
              in
              let rs = List.map snd results in
              Obs.Trace.ambient_incr
                ~by:(sum (fun (r : Dup.Dup_detect.result) -> r.candidates_checked) rs)
                "dup.candidates_checked";
              Obs.Trace.ambient_incr
                ~by:(sum (fun (r : Dup.Dup_detect.result) -> List.length r.links) rs)
                "dup.links";
              ( results,
                List.concat_map
                  (fun (_, src) -> Dup.Dup_detect.reprs_of_source src)
                  prepared ))
        in
        match res with
        | Ok (results, reprs) ->
            List.iter
              (fun ((a, b) as p, (r : Dup.Dup_detect.result)) ->
                let e = current_entry p in
                Pair_store.set store a b
                  { e with Pair_store.dup_links = r.links;
                    dup_candidates = r.candidates_checked })
              results;
            ( Some reprs,
              Report.step ~seconds:dup_secs "duplicate detection" Report.Ok )
        | Error (Report.Timeout b) ->
            clear_dup_fields ();
            ( None,
              Report.step ~seconds:dup_secs "duplicate detection"
                (Report.Skipped (Report.Budget_exhausted b)) )
        | Error (Report.Crashed _ as e) ->
            clear_dup_fields ();
            ( None,
              Report.step ~seconds:dup_secs "duplicate detection"
                (Report.Failed e) ))
  in

  (* --- synthesized whole-warehouse views (reused pairs included) --- *)
  let entries = Pair_store.pairs store in
  let merged f =
    Link.dedup (List.concat_map (fun (_, e) -> f e) entries)
  in
  let report =
    match link_run_opt with
    | None -> None
    | Some run ->
        let xref_all = merged (fun e -> e.Pair_store.xref_links) in
        let seq_all = merged (fun e -> e.Pair_store.seq_links) in
        let text_all = merged (fun e -> e.Pair_store.text_links) in
        let onto_all = Pair_store.onto store in
        Some
          {
            Linker.links =
              Link.dedup (xref_all @ seq_all @ text_all @ onto_all);
            xref_result =
              (if run.xref_ran then
                 Some
                   { Xref_disc.links = xref_all;
                     correspondences = Pair_store.correspondences store;
                     attributes_scanned = run.xref_attrs;
                     pairs_compared = run.xref_pairs }
               else None);
            seq_result =
              (match run.seq_batch with
              | Some (fields, indexed, verified) ->
                  Some
                    { Seq_links.links = seq_all; fields;
                      sequences_indexed = indexed; pairs_verified = verified }
              | None -> None);
            text_result =
              (if run.text_ran then
                 Some
                   { Text_links.links = text_all; documents = run.text_docs;
                     mention_links = run.text_mentions }
               else None);
            onto_result =
              (if run.onto_ran then
                 Some
                   { Onto_links.links = onto_all;
                     hub_targets_skipped = run.onto_hubs }
               else None);
            passes = run.passes;
          }
  in
  let dups =
    match dup_reprs with
    | None -> None
    | Some reprs ->
        let dup_all = merged (fun e -> e.Pair_store.dup_links) in
        let uf = Dup.Union_find.create () in
        List.iter
          (fun (l : Link.t) ->
            Dup.Union_find.union uf (Objref.to_string l.src)
              (Objref.to_string l.dst))
          dup_all;
        Some
          {
            Dup.Dup_detect.links = dup_all;
            clusters = Dup.Union_find.clusters uf;
            candidates_checked = Pair_store.dup_candidates_total store;
            reprs;
          }
  in
  let changed_kinds =
    List.filter
      (fun k ->
        (k = Link.Shared_term && old_onto <> Pair_store.onto store)
        || List.exists
             (fun (p, old) -> links_of_kind old k <> links_of_kind (current_entry p) k)
             (old_link_entries @ old_dup_entries))
      all_kinds
  in
  let recomputed_pairs = List.sort_uniq compare (link_pairs @ dup_pairs) in
  let reused_pairs =
    List.filter
      (fun p -> not (List.mem p recomputed_pairs))
      (Pair_store.pair_keys store)
  in
  {
    link_step;
    dup_step;
    report;
    dups;
    audit = { recomputed_pairs; reused_pairs };
    changed_kinds;
  }
