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

(* [links] grouped by the canonical pair of their endpoints' sources,
   each group in [links]' order *)
let by_pair links =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (l : Link.t) ->
      let p = Pair_store.canon l.src.source l.dst.source in
      Hashtbl.replace groups p
        (l :: Option.value (Hashtbl.find_opt groups p) ~default:[]))
    (List.rev links);
  Hashtbl.fold (fun p ls acc -> (p, ls) :: acc) groups []

(* the link kinds each phase owns *)
let xref_kinds = [ Link.Xref ]
let seq_kinds = [ Link.Seq_similarity ]
let text_kinds = [ Link.Text_similarity; Link.Entity_mention ]
let onto_kinds = [ Link.Shared_term ]
let dup_kinds = [ Link.Duplicate ]

(* the kinds whose links differ in some pair between two states of the
   store, compared pair by pair *)
let changed_kinds before after =
  let of_kind k entries p =
    match List.assoc_opt p entries with
    | Some (e : Pair_store.entry) ->
        List.filter (fun (l : Link.t) -> l.kind = k) e.links
    | None -> []
  in
  let pairs = List.sort_uniq compare (List.map fst before @ List.map fst after) in
  List.filter
    (fun k -> List.exists (fun p -> of_kind k before p <> of_kind k after p) pairs)
    Link.kinds

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
  (* the entries before the run, for the per-kind change diff that drives
     typed cache invalidation — and the exclude-attribute sets before the
     new correspondences land, which decide below which dup pairs are
     stale *)
  let before = Pair_store.pairs store in
  let excludes_of () =
    List.map
      (fun s -> (s, Pair_store.exclude_triples store ~source:s))
      source_order
  in
  let old_excludes = excludes_of () in
  (* the one commit rule: a phase owns the link kinds [owns], and in each
     pair it rewrites, [fresh] (its links there, in [Link.dedup]'s form)
     replaces exactly the pair's links of those kinds. A phase that did
     not run commits no links, exactly as a from-scratch run under the
     same config would. The xref pass also owns the correspondences and
     the dup phase the candidate count. *)
  let commit owns ?correspondences ?dup_candidates ((a, b) as p) fresh =
    let e = current_entry p in
    Pair_store.set store a b
      {
        links =
          Link.union
            [ List.filter (fun (l : Link.t) -> not (List.mem l.kind owns)) e.links;
              fresh ];
        correspondences = Option.value correspondences ~default:e.correspondences;
        dup_candidates = Option.value dup_candidates ~default:e.dup_candidates;
      }
  in
  (* a staged pass's links in pair [p] *)
  let staged_in staged p =
    Option.value (Option.bind staged (List.assoc_opt p)) ~default:[]
  in

  (* --- the link phase: three pairwise passes over the recomputed pairs,
     then the global shared-term pass over the committed xref view --- *)
  let clear_pairwise () =
    List.iter
      (fun p -> commit (xref_kinds @ seq_kinds @ text_kinds) ~correspondences:[] p [])
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
    List.iter
      (fun p ->
        match Option.bind xref_staged (List.assoc_opt p) with
        | Some (r : Xref_disc.result) ->
            commit xref_kinds ~correspondences:r.correspondences p r.links
        | None -> commit xref_kinds ~correspondences:[] p [])
      link_pairs;
    let seq_staged, seq_step =
      pass ~enabled:lp.enable_seq ~budget:budgets.seq_pass "seq pass" (fun () ->
          (* index the changed source alone and probe it with every
             other source's sequences; every fresh link touches the
             changed source, so its pairs are all recomputed ones *)
          by_pair
            (Seq_links.discover_source ~params:lp.seq ~pool profiles
               ~source:changed))
    in
    List.iter (fun p -> commit seq_kinds p (staged_in seq_staged p)) link_pairs;
    let text_staged, text_step =
      pass ~enabled:lp.enable_text ~budget:budgets.text_pass "text pass"
        (fun () ->
          (* every source prepared once, then the changed source's pairs;
             the reused pairs' links are already in the store *)
          Text_links.discover_source ~params:lp.text ~pool profiles
            ~source:changed)
    in
    List.iter (fun p -> commit text_kinds p (staged_in text_staged p)) link_pairs;
    (* shared-term links count shared targets across ALL xref links (a
       third source's xrefs raise a pair's confidence), so this pass
       stays global: cheap, derived from the committed xref view, and
       committed to every pair *)
    let onto_staged, onto_step =
      pass ~enabled:lp.enable_onto ~budget:budgets.onto_pass "onto pass"
        (fun () ->
          let xrefs =
            Link.union
              (List.map
                 (fun (_, (e : Pair_store.entry)) ->
                   List.filter (fun (l : Link.t) -> l.kind = Link.Xref) e.links)
                 (Pair_store.pairs store))
          in
          let parents = Onto_links.parents_from_profiles profiles in
          let r = Onto_links.discover ~parents ~xrefs () in
          Obs.Trace.ambient_incr ~by:r.hub_targets_skipped
            "onto.hub_targets_skipped";
          Obs.Trace.ambient_incr ~by:(List.length r.links) "onto.links";
          by_pair r.links)
    in
    (* every pair the store holds, and every pair a link names *)
    List.iter
      (fun p -> commit onto_kinds p (staged_in onto_staged p))
      (List.sort_uniq compare
         (Pair_store.pair_keys store
         @ List.map fst (Option.value onto_staged ~default:[])));
    [ xref_step; seq_step; text_step; onto_step ]
  in
  let link_step =
    match Res.Boundary.skipped_for_zero ~name:"link discovery" budgets.links with
    | Some skipped ->
        clear_pairwise ();
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
            clear_pairwise ();
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
    List.iter
      (fun p ->
        match Option.bind results (List.assoc_opt p) with
        | Some (r : Dup.Dup_detect.result) ->
            commit dup_kinds ~dup_candidates:r.candidates_checked p r.links
        | None -> commit dup_kinds ~dup_candidates:0 p [])
      dup_pairs;
    step
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
    changed_kinds = changed_kinds before (Pair_store.pairs store);
  }
