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
  links : Link.t list;
  audit : audit;
  changed_kinds : Link.kind list;
}

(* --- resilience plumbing ---

   Every step and pass runs in its own span and error boundary
   ([Boundary.bounded]), under its budget key: a pass that is disabled,
   budget-zero, over budget or crashed is recorded in the run report
   and loses only its own links. *)

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

(* one link pass over its share of the recomputed pairs. A pass with a
   zero budget is skipped before touching any data, so the other passes'
   output is identical to a run without it. The xref pass always runs
   (there is no key to disable it); the others have an enable flag. *)
let pass ?(enabled = true) ~budget name f =
  if not enabled then (None, Report.step name (Report.Skipped Report.Disabled))
  else
    let v, step = Res.Boundary.optional ~name ~budget f in
    (match step.outcome with
    | Report.Skipped Report.Budget_zero -> ()
    | _ -> Obs.Trace.ambient_observe "linkdisc.pass_seconds" step.seconds);
    (v, step)

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

let relink ~(cfg : Config.t) ~pool ~profiles ~source_order ~store ~changed () =
  let budgets = cfg.budgets in
  let lp = cfg.linker in
  let link_pairs =
    List.sort_uniq compare
      (List.filter_map
         (fun x -> if x = changed then None else Some (Pair_store.canon x changed))
         source_order)
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
      pass ~budget:budgets.xref_pass "xref pass"
        (fun () ->
          let per =
            List.map
              (fun ((a, b) as p) ->
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
          List.map
            (fun p ->
              ( p,
                List.filter
                  (fun (l : Link.t) ->
                    Pair_store.canon l.src.source l.dst.source = p)
                  fresh ))
            link_pairs)
    in
    let text_staged, text_step =
      pass ~enabled:lp.enable_text ~budget:budgets.text_pass "text pass"
        (fun () ->
          (* every source prepared once, then the changed source's pairs;
             the reused pairs' links are already in the store *)
          Text_links.discover_source ~params:lp.text ~pool profiles
            ~source:changed)
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
              | Some staged -> staged_assoc staged p
              | None -> []);
            text_links =
              (match text_staged with
              | Some staged -> staged_assoc staged p
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
            Link.union
              (List.map
                 (fun (_, (e : Pair_store.entry)) -> e.xref_links)
                 (Pair_store.pairs store))
          in
          let parents = Onto_links.parents_from_profiles profiles in
          let r = Onto_links.discover ~parents ~xrefs () in
          Obs.Trace.ambient_incr ~by:r.hub_targets_skipped
            "onto.hub_targets_skipped";
          Obs.Trace.ambient_incr ~by:(List.length r.links) "onto.links";
          r)
    in
    Pair_store.set_onto store
      (match onto_staged with Some r -> r.Onto_links.links | None -> []);
    [ xref_step; seq_step; text_step; onto_step ]
  in
  let link_step =
    match Res.Boundary.skipped_for_zero ~name:"link discovery" budgets.links with
    | Some skipped ->
        clear_link_fields ();
        skipped
    | None -> (
        let res, link_secs =
          Res.Boundary.bounded ~name:"link discovery" ?budget:budgets.links
            run_link_passes
        in
        match res with
        | Ok passes ->
            Report.step ~seconds:link_secs ~children:passes "link discovery"
              (outcome_of_children passes)
        | Error err ->
            (* discard partial results of this run; reused pairs keep
               theirs, exactly like a from-scratch run that never
               produced them *)
            clear_link_fields ();
            Report.step ~seconds:link_secs "link discovery" (Report.Failed err))
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
  let dup_step =
    let results, step =
      Res.Boundary.optional ~name:"duplicate detection" ~budget:budgets.dups
        (fun () ->
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
          results)
    in
    (match results with
    | Some results ->
        List.iter
          (fun ((a, b) as p, (r : Dup.Dup_detect.result)) ->
            let e = current_entry p in
            Pair_store.set store a b
              { e with Pair_store.dup_links = r.links;
                dup_candidates = r.candidates_checked })
          results
    | None -> clear_dup_fields ());
    step
  in
  let changed_kinds =
    List.filter
      (fun k ->
        (k = Link.Shared_term && old_onto <> Pair_store.onto store)
        || List.exists
             (fun (p, old) -> links_of_kind old k <> links_of_kind (current_entry p) k)
             (old_link_entries @ old_dup_entries))
      Link.kinds
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
    links = Pair_store.all_links store;
    audit = { recomputed_pairs; reused_pairs };
    changed_kinds;
  }
