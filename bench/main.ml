(* Experiment harness: regenerates every table/figure of the paper and the
   precision/recall evaluation the paper specifies (see DESIGN.md §4 and
   EXPERIMENTS.md).

     dune exec bench/main.exe             run every experiment
     dune exec bench/main.exe -- table1   one experiment (E-id or name)
     dune exec bench/main.exe -- micro    bechamel microbenchmarks *)

open Aladin
module Dg = Aladin_datagen
module Lk = Aladin_links
module Ds = Aladin_discovery
module Dup = Aladin_dup
module Ev = Aladin_eval
module Bl = Aladin_baselines
module Rel = Aladin_relational

(* ------------------------------------------------------------------ *)
(* shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let small_universe =
  { Dg.Universe.default_params with n_proteins = 60; n_genes = 30;
    n_structures = 25; n_diseases = 10; n_terms = 16; n_families = 8 }

let default_corpus_params =
  { Dg.Corpus.default_params with universe = small_universe }

let obj_key (o : Lk.Objref.t) = o.source ^ ":" ^ o.accession

let link_pair_keys kind links =
  links
  |> List.filter (fun (l : Lk.Link.t) -> l.kind = kind)
  |> List.map (fun (l : Lk.Link.t) ->
         Ev.Metrics.pair_key (obj_key l.src) (obj_key l.dst))

let gold_xref_keys (gold : Dg.Gold.t) =
  List.map (fun (a, b) -> Ev.Metrics.pair_key a b) gold.xrefs

let analyze_corpus (corpus : Dg.Corpus.t) =
  Lk.Profile_list.of_profiles
    (List.map Ds.Source_profile.analyze corpus.catalogs)

(* monotonic wall clock — Sys.time would report CPU time, which undercounts
   anything I/O-bound and inflates nothing-burger spins *)
let timed = Aladin_obs.Clock.timed

let scores_cells (s : Ev.Metrics.scores) =
  [ Ev.Report.cell_f s.precision; Ev.Report.cell_f s.recall; Ev.Report.cell_f s.f1 ]

(* ------------------------------------------------------------------ *)
(* E1 — Table 1: spectrum of integration approaches                    *)
(* ------------------------------------------------------------------ *)

let e1_table1 () =
  let corpus = Dg.Corpus.generate default_corpus_params in
  let gold_keys = gold_xref_keys corpus.gold in
  let quality links =
    Ev.Metrics.evaluate ~expected:gold_keys
      ~predicted:(link_pair_keys Lk.Link.Xref links)
  in
  let r =
    Ev.Report.create ~title:"E1 / Table 1: cost and quality per integration approach"
      ~columns:[ "approach"; "manual items"; "person-min"; "xref P"; "xref R"; "notes" ]
  in
  let row (c : Bl.Cost_model.cost) p rec_ =
    Ev.Report.add_row r
      [ c.approach; string_of_int c.manual_interventions;
        Printf.sprintf "%.0f" c.person_minutes; p; rec_; c.notes ]
  in
  (* data-focused: perfect by construction, paid per row *)
  row (Bl.Cost_model.data_focused corpus.catalogs) "1.000" "1.000";
  (* schema-focused: name-based matching only *)
  let name_corrs = Bl.Name_matcher.match_corpus corpus.catalogs in
  let schema_specs =
    (* attribute correspondences into primary-key targets become xref tags *)
    List.filter_map
      (fun cat ->
        let source = Rel.Catalog.name cat in
        match Dg.Gold.find_source corpus.gold source with
        | None -> None
        | Some sg ->
            let xrefs =
              List.filter_map
                (fun (m : Bl.Name_matcher.correspondence) ->
                  match Dg.Gold.find_source corpus.gold m.dst_source with
                  | Some tsg
                    when m.src_source = source
                         && String.lowercase_ascii m.dst_relation
                            = String.lowercase_ascii tsg.primary_relation
                         && String.lowercase_ascii m.dst_attribute
                            = String.lowercase_ascii tsg.accession_attribute ->
                      Some
                        { Bl.Srs.relation = m.src_relation;
                          attribute = m.src_attribute;
                          target_source = m.dst_source;
                          target_relation = tsg.primary_relation;
                          target_attribute = tsg.accession_attribute }
                  | Some _ | None -> None)
                name_corrs
            in
            Some
              { Bl.Srs.source; primary_relation = sg.primary_relation;
                accession_attribute = sg.accession_attribute;
                structure = sg.fks; xrefs })
      corpus.catalogs
  in
  let schema_links = Bl.Srs.integrate corpus.catalogs schema_specs in
  let sq = quality schema_links in
  let sc = Bl.Cost_model.schema_focused corpus.catalogs in
  row sc (Ev.Report.cell_f sq.precision) (Ev.Report.cell_f sq.recall);
  (* SRS: perfect manual specs *)
  let srs_specs =
    List.filter_map
      (fun cat ->
        Bl.Srs.spec_of_gold corpus.gold ~source:(Rel.Catalog.name cat)
          corpus.catalogs)
      corpus.catalogs
  in
  let srs_links = Bl.Srs.integrate corpus.catalogs srs_specs in
  let srsq = quality srs_links in
  row (Bl.Cost_model.srs_style srs_specs) (Ev.Report.cell_f srsq.precision)
    (Ev.Report.cell_f srsq.recall);
  (* ALADIN: automatic *)
  let w = Warehouse.integrate corpus.catalogs in
  let aq = quality (Warehouse.links w) in
  row
    (Bl.Cost_model.aladin corpus.catalogs ~n_parsers_needed:0)
    (Ev.Report.cell_f aq.precision) (Ev.Report.cell_f aq.recall);
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2: the five-step pipeline, per-source timings           *)
(* ------------------------------------------------------------------ *)

let e2_pipeline () =
  let corpus = Dg.Corpus.generate default_corpus_params in
  let r =
    Ev.Report.create ~title:"E2 / Figure 2: per-step seconds while adding each source"
      ~columns:[ "source"; "rows"; "import"; "primary"; "secondary"; "links"; "dups" ]
  in
  let w = Warehouse.create () in
  List.iter
    (fun cat ->
      let report = Warehouse.add_source w cat in
      let sec step =
        match Warehouse.Run_report.find report step with
        | Some (s : Warehouse.Run_report.step_report) ->
            Printf.sprintf "%.3f" s.seconds
        | None -> "-"
      in
      Ev.Report.add_row r
        [ Rel.Catalog.name cat;
          string_of_int (Rel.Catalog.total_rows cat);
          sec "import";
          sec "primary discovery";
          sec "secondary discovery";
          sec "link discovery";
          sec "duplicate detection" ])
    corpus.catalogs;
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E3 — Figure 3 / §5: the BioSQL case study                           *)
(* ------------------------------------------------------------------ *)

let e3_biosql () =
  let corpus =
    Dg.Corpus.generate { default_corpus_params with include_flat_file = true }
  in
  let cat =
    List.find (fun c -> Rel.Catalog.name c = "swissflat") corpus.catalogs
  in
  let sp = Ds.Source_profile.analyze cat in
  let r =
    Ev.Report.create
      ~title:"E3 / Figure 3: BioSQL schema via the Swiss-Prot parser"
      ~columns:[ "property"; "expected"; "discovered"; "ok" ]
  in
  let add name expected discovered =
    Ev.Report.add_row r
      [ name; expected; discovered;
        (if String.lowercase_ascii expected = String.lowercase_ascii discovered
         then "yes" else "NO") ]
  in
  (match Ds.Source_profile.primary_accession sp with
  | Some (rel, attr) ->
      add "primary relation" "bioentry" rel;
      add "accession attribute" "accession" attr
  | None ->
      add "primary relation" "bioentry" "(none)";
      add "accession attribute" "accession" "(none)");
  (* FK structure P/R vs the known BioSQL shape *)
  let fk_key (fk : Ds.Inclusion.fk) =
    Printf.sprintf "%s.%s>%s.%s"
      (String.lowercase_ascii fk.src_relation) (String.lowercase_ascii fk.src_attribute)
      (String.lowercase_ascii fk.dst_relation) (String.lowercase_ascii fk.dst_attribute)
  in
  let gold_fk_key (fk : Dg.Gold.expected_fk) =
    Printf.sprintf "%s.%s>%s.%s"
      (String.lowercase_ascii fk.src_relation) (String.lowercase_ascii fk.src_attribute)
      (String.lowercase_ascii fk.dst_relation) (String.lowercase_ascii fk.dst_attribute)
  in
  let s =
    Ev.Metrics.evaluate
      ~expected:(List.map gold_fk_key Dg.Biosql_gen.expected_fks)
      ~predicted:(List.map fk_key sp.fks)
  in
  Ev.Report.add_row r
    [ "FK structure"; "6 foreign keys";
      Printf.sprintf "P=%.2f R=%.2f" s.precision s.recall;
      (if s.recall >= 0.99 then "yes" else "NO") ];
  (* the DBRef.accession cross-reference attribute (paper §5) *)
  let profiles = analyze_corpus corpus in
  let xr = Lk.Xref_disc.discover profiles in
  let dbref_found =
    List.exists
      (fun (c : Lk.Xref_disc.correspondence) ->
        c.src_source = "swissflat" && c.src_relation = "dbxref"
        && c.src_attribute = "accession")
      xr.correspondences
  in
  Ev.Report.add_row r
    [ "dbxref.accession is xref source"; "found"; (if dbref_found then "found" else "missed");
      (if dbref_found then "yes" else "NO") ];
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E4 — primary-relation discovery P/R                                 *)
(* ------------------------------------------------------------------ *)

let primary_accuracy (corpus : Dg.Corpus.t)
    ?(accession_params = Ds.Accession.default_params) () =
  let total = List.length corpus.gold.sources in
  let rel_ok = ref 0 and attr_ok = ref 0 in
  List.iter
    (fun (sg : Dg.Gold.source_gold) ->
      match
        List.find_opt (fun c -> Rel.Catalog.name c = sg.source) corpus.catalogs
      with
      | None -> ()
      | Some cat -> (
          let sp = Ds.Source_profile.analyze ~accession_params cat in
          match Ds.Source_profile.primary_accession sp with
          | Some (rel, attr) ->
              if String.lowercase_ascii rel = String.lowercase_ascii sg.primary_relation
              then begin
                incr rel_ok;
                if String.lowercase_ascii attr
                   = String.lowercase_ascii sg.accession_attribute
                then incr attr_ok
              end
          | None -> ()))
    corpus.gold.sources;
  ( float_of_int !rel_ok /. float_of_int (max 1 total),
    float_of_int !attr_ok /. float_of_int (max 1 total),
    total )

let e4_primary () =
  let r =
    Ev.Report.create
      ~title:"E4: primary-relation discovery accuracy (fraction of sources correct)"
      ~columns:[ "configuration"; "sources"; "relation acc"; "attribute acc" ]
  in
  let run name params accession_params =
    let seeds = [ 42; 43; 44 ] in
    let accs =
      List.map
        (fun seed ->
          let corpus = Dg.Corpus.generate { params with Dg.Corpus.seed = seed } in
          primary_accuracy corpus ?accession_params ())
        seeds
    in
    let n = match accs with (_, _, n) :: _ -> n | [] -> 0 in
    Ev.Report.add_row r
      [ name;
        Printf.sprintf "%d x %d seeds" n (List.length seeds);
        Ev.Report.cell_f (Ev.Metrics.mean (List.map (fun (a, _, _) -> a) accs));
        Ev.Report.cell_f (Ev.Metrics.mean (List.map (fun (_, b, _) -> b) accs)) ]
  in
  run "default heuristics" default_corpus_params None;
  run "generic FK column names"
    { default_corpus_params with generic_fk_names = true }
    None;
  run "declared constraints shipped"
    { default_corpus_params with declare_constraints = true }
    None;
  run "with field corruption 20%"
    { default_corpus_params with corruption = 0.2 }
    None;
  (* ablation of the accession heuristic thresholds *)
  run "ablation: min_length=2" default_corpus_params
    (Some { Ds.Accession.default_params with min_length = 2 });
  run "ablation: length spread 5%" default_corpus_params
    (Some { Ds.Accession.default_params with max_length_spread = 0.05 });
  run "ablation: length spread 60%" default_corpus_params
    (Some { Ds.Accession.default_params with max_length_spread = 0.6 });
  Ev.Report.print r;
  (* the EnsEmbl dual-primary case (§4.2) *)
  let u = Dg.Universe.generate small_universe in
  let cat, expected = Dg.Source_gen.build_dual_primary u ~name:"ensembl" in
  let sp = Ds.Source_profile.analyze cat in
  let found =
    Ds.Primary.choose_multi sp.graph sp.accession_candidates
    |> List.map (fun (s : Ds.Primary.scored) -> s.relation)
    |> List.sort String.compare
  in
  Printf.printf
    "\nE4b (dual-primary, §4.2 EnsEmbl case): expected {%s}, choose_multi found {%s} -> %s\n"
    (String.concat ", " (List.map fst expected))
    (String.concat ", " found)
    (if found = List.sort String.compare (List.map fst expected) then "ok"
     else "MISS")

(* ------------------------------------------------------------------ *)
(* E5 — FK inference and secondary structure                           *)
(* ------------------------------------------------------------------ *)

let e5_secondary () =
  let r =
    Ev.Report.create
      ~title:"E5: foreign-key inference and secondary-structure quality"
      ~columns:[ "configuration"; "fk P"; "fk R"; "fk F1"; "orphan relations" ]
  in
  let fk_key src_rel src_attr dst_rel dst_attr =
    String.lowercase_ascii
      (Printf.sprintf "%s.%s>%s.%s" src_rel src_attr dst_rel dst_attr)
  in
  let run ?inclusion_params name params =
    let corpus = Dg.Corpus.generate params in
    let expected =
      List.concat_map
        (fun (sg : Dg.Gold.source_gold) ->
          List.map
            (fun (fk : Dg.Gold.expected_fk) ->
              sg.source ^ "/"
              ^ fk_key fk.src_relation fk.src_attribute fk.dst_relation
                  fk.dst_attribute)
            sg.fks)
        corpus.gold.sources
    in
    let orphans = ref 0 in
    let predicted =
      List.concat_map
        (fun cat ->
          let sp = Ds.Source_profile.analyze ?inclusion_params cat in
          (match sp.secondary with
          | Some sec -> orphans := !orphans + List.length sec.orphans
          | None -> ());
          List.map
            (fun (fk : Ds.Inclusion.fk) ->
              Rel.Catalog.name cat ^ "/"
              ^ fk_key fk.src_relation fk.src_attribute fk.dst_relation
                  fk.dst_attribute)
            sp.fks)
        corpus.catalogs
    in
    let s = Ev.Metrics.evaluate ~expected ~predicted in
    Ev.Report.add_row r
      (name :: scores_cells s @ [ string_of_int !orphans ])
  in
  run "default heuristics" default_corpus_params;
  run "generic FK column names" { default_corpus_params with generic_fk_names = true };
  run "declared constraints shipped"
    { default_corpus_params with declare_constraints = true };
  run "bigger corpus"
    { default_corpus_params with
      universe = { small_universe with n_proteins = 150; n_structures = 60 } };
  (* dirty referential integrity: exact vs approximate INDs (KM92) *)
  let dirty = { default_corpus_params with fk_noise = 0.05 } in
  run "5% dangling FKs, exact INDs" dirty;
  run
    ~inclusion_params:{ Ds.Inclusion.default_params with min_containment = 0.9 }
    "5% dangling FKs, 90% containment" dirty;
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E6 — explicit link discovery and pruning                            *)
(* ------------------------------------------------------------------ *)

let e6_links () =
  let corpus = Dg.Corpus.generate default_corpus_params in
  let profiles = analyze_corpus corpus in
  let gold_keys = gold_xref_keys corpus.gold in
  let r =
    Ev.Report.create ~title:"E6: explicit cross-reference discovery and pruning"
      ~columns:[ "variant"; "attr pairs"; "xref P"; "xref R"; "xref F1"; "seconds" ]
  in
  let run name prune =
    let params = { Lk.Xref_disc.default_params with prune } in
    let res, secs = timed (fun () -> Lk.Xref_disc.discover ~params profiles) in
    let s =
      Ev.Metrics.evaluate ~expected:gold_keys
        ~predicted:(link_pair_keys Lk.Link.Xref res.links)
    in
    Ev.Report.add_row r
      (name :: string_of_int res.pairs_compared :: scores_cells s
      @ [ Printf.sprintf "%.3f" secs ])
  in
  run "with pruning (default)" Lk.Prune.default_params;
  run "no pruning" Lk.Prune.no_pruning;
  (* name-matching baseline finds correspondences but cannot rank targets *)
  let corrs, secs = timed (fun () -> Bl.Name_matcher.match_corpus corpus.catalogs) in
  Ev.Report.add_row r
    [ "name-matcher baseline (attrs only)";
      string_of_int (List.length corrs); "-"; "-"; "-";
      Printf.sprintf "%.3f" secs ];
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E7 — implicit links from sequence homology                          *)
(* ------------------------------------------------------------------ *)

let e7_seqlinks () =
  let r =
    Ev.Report.create
      ~title:"E7: sequence-homology links vs mutation rate (threshold 0.5)"
      ~columns:[ "mutation rate"; "gold pairs"; "found"; "P"; "R"; "F1" ]
  in
  List.iter
    (fun rate ->
      let corpus =
        Dg.Corpus.generate
          { default_corpus_params with
            universe = { small_universe with mutation_rate = rate } }
      in
      let profiles = analyze_corpus corpus in
      let res = Lk.Seq_links.discover profiles in
      let expected =
        List.map (fun (a, b) -> Ev.Metrics.pair_key a b)
          (Dg.Gold.family_pairs corpus.universe corpus.gold)
      in
      let predicted = link_pair_keys Lk.Link.Seq_similarity res.links in
      let s = Ev.Metrics.evaluate ~expected ~predicted in
      Ev.Report.add_row r
        ([ Printf.sprintf "%.2f" rate; string_of_int (List.length expected);
           string_of_int (List.length predicted) ]
        @ scores_cells s))
    [ 0.02; 0.05; 0.10; 0.20; 0.30 ];
  Ev.Report.print r;
  (* threshold sweep at the default mutation rate *)
  let corpus = Dg.Corpus.generate default_corpus_params in
  let profiles = analyze_corpus corpus in
  let expected =
    List.map (fun (a, b) -> Ev.Metrics.pair_key a b)
      (Dg.Gold.family_pairs corpus.universe corpus.gold)
  in
  let r2 =
    Ev.Report.create ~title:"E7b: homology score threshold sweep"
      ~columns:[ "min normalized score"; "found"; "P"; "R"; "F1" ]
  in
  List.iter
    (fun thr ->
      let params = { Lk.Seq_links.default_params with min_normalized = thr } in
      let res = Lk.Seq_links.discover ~params profiles in
      let predicted = link_pair_keys Lk.Link.Seq_similarity res.links in
      let s = Ev.Metrics.evaluate ~expected ~predicted in
      Ev.Report.add_row r2
        ([ Printf.sprintf "%.2f" thr; string_of_int (List.length predicted) ]
        @ scores_cells s))
    [ 0.3; 0.5; 0.7; 0.9 ];
  Ev.Report.print r2

(* ------------------------------------------------------------------ *)
(* E8 — duplicate detection                                            *)
(* ------------------------------------------------------------------ *)

let e8_dups () =
  let r =
    Ev.Report.create
      ~title:"E8: duplicate detection vs corruption and threshold"
      ~columns:[ "corruption"; "threshold"; "candidates"; "P"; "R"; "F1" ]
  in
  List.iter
    (fun corruption ->
      let corpus =
        Dg.Corpus.generate { default_corpus_params with corruption }
      in
      let profiles = analyze_corpus corpus in
      (* as in the pipeline: step-4 xref attributes are excluded from bags *)
      let xr = Lk.Xref_disc.discover profiles in
      let exclude_attributes =
        List.map
          (fun (c : Lk.Xref_disc.correspondence) ->
            (c.src_source, c.src_relation, c.src_attribute))
          xr.correspondences
      in
      let reprs = Dup.Object_sim.build_reprs ~exclude_attributes profiles in
      let expected =
        List.map (fun (a, b) -> Ev.Metrics.pair_key a b)
          (Dg.Gold.duplicate_pairs corpus.gold)
      in
      List.iter
        (fun thr ->
          let res =
            Dup.Dup_detect.detect_on
              ~params:{ Dup.Dup_detect.default_params with min_similarity = thr }
              reprs
          in
          let predicted = link_pair_keys Lk.Link.Duplicate res.links in
          let s = Ev.Metrics.evaluate ~expected ~predicted in
          Ev.Report.add_row r
            ([ Printf.sprintf "%.1f" corruption; Printf.sprintf "%.2f" thr;
               string_of_int res.candidates_checked ]
            @ scores_cells s))
        [ 0.60; 0.70; 0.80 ])
    [ 0.0; 0.2; 0.4 ];
  Ev.Report.print r;
  (* conflicts among true duplicates: §4.5's data-conflict exploration *)
  let corpus = Dg.Corpus.generate { default_corpus_params with corruption = 0.3 } in
  let profiles = analyze_corpus corpus in
  let xr = Lk.Xref_disc.discover profiles in
  let exclude_attributes =
    List.map
      (fun (c : Lk.Xref_disc.correspondence) ->
        (c.src_source, c.src_relation, c.src_attribute))
      xr.correspondences
  in
  let res = Dup.Dup_detect.detect ~exclude_attributes profiles in
  let conflicts = Dup.Conflict.in_duplicates res.reprs res.links in
  Printf.printf "\nE8b: %d flagged duplicate pairs carry %d field conflicts\n"
    (List.length res.links) (List.length conflicts)

(* ------------------------------------------------------------------ *)
(* E9 — error propagation (§6.2)                                       *)
(* ------------------------------------------------------------------ *)

let e9_propagation () =
  let corpus = Dg.Corpus.generate default_corpus_params in
  let gold_keys = gold_xref_keys corpus.gold in
  let sps = List.map Ds.Source_profile.analyze corpus.catalogs in
  let r =
    Ev.Report.create
      ~title:"E9 / §6.2: wrong primary relations propagate into link quality"
      ~columns:[ "sources with wrong primary"; "xref links"; "P"; "R"; "F1" ]
  in
  let break k =
    (* force the k first sources onto a wrong primary relation (their
       dictionary/keyword table when present) *)
    List.mapi
      (fun i sp ->
        if i >= k then sp
        else
          let catalog = Ds.Profile.catalog sp.Ds.Source_profile.profile in
          let wrong =
            List.find_opt
              (fun rel ->
                match Ds.Source_profile.primary_relation sp with
                | Some p ->
                    String.lowercase_ascii (Rel.Relation.name rel)
                    <> String.lowercase_ascii p
                | None -> true)
              (Rel.Catalog.relations catalog)
          in
          match wrong with
          | Some rel ->
              Ds.Source_profile.with_primary sp ~relation:(Rel.Relation.name rel)
          | None -> sp)
      sps
  in
  List.iter
    (fun k ->
      let profiles = Lk.Profile_list.of_profiles (break k) in
      let res = Lk.Xref_disc.discover profiles in
      let predicted = link_pair_keys Lk.Link.Xref res.links in
      let s = Ev.Metrics.evaluate ~expected:gold_keys ~predicted in
      Ev.Report.add_row r
        ([ string_of_int k; string_of_int (List.length predicted) ]
        @ scores_cells s))
    [ 0; 1; 2; 3 ];
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E10 — incremental addition cost (§6.2)                              *)
(* ------------------------------------------------------------------ *)

let e10_scale () =
  let r =
    Ev.Report.create
      ~title:"E10 / §6.2: cost of adding the k-th source (seconds)"
      ~columns:
        [ "k"; "source"; "rows"; "incremental index"; "full recompute";
          "no pruning" ]
  in
  let corpus =
    Dg.Corpus.generate
      { default_corpus_params with
        universe = { small_universe with n_proteins = 100; n_structures = 40 } }
  in
  let full_cfg = { Config.default with incremental_seq = false } in
  let no_prune_cfg =
    { full_cfg with
      linker =
        { Lk.Linker.default_params with
          xref = { Lk.Xref_disc.default_params with prune = Lk.Prune.no_pruning } } }
  in
  let w1 = Warehouse.create () in
  let w2 = Warehouse.create ~config:full_cfg () in
  let w3 = Warehouse.create ~config:no_prune_cfg () in
  List.iteri
    (fun i cat ->
      let _, t1 = timed (fun () -> Warehouse.add_source w1 cat) in
      let _, t2 = timed (fun () -> Warehouse.add_source w2 cat) in
      let _, t3 = timed (fun () -> Warehouse.add_source w3 cat) in
      Ev.Report.add_row r
        [ string_of_int (i + 1); Rel.Catalog.name cat;
          string_of_int (Rel.Catalog.total_rows cat);
          Printf.sprintf "%.3f" t1; Printf.sprintf "%.3f" t2;
          Printf.sprintf "%.3f" t3 ])
    corpus.catalogs;
  Ev.Report.print r;
  Printf.printf
    "(incremental indexes the added source and probes it with the others'; \
     full recompute runs batch all-pairs homology on every recomputed \
     source pair)\n"

(* ------------------------------------------------------------------ *)
(* E11 — access engine quality                                         *)
(* ------------------------------------------------------------------ *)

let e11_access () =
  let corpus = Dg.Corpus.generate default_corpus_params in
  let w = Warehouse.integrate corpus.catalogs in
  let eng = Engine.create w in
  let r =
    Ev.Report.create ~title:"E11: access engine (search, SQL, browsing)"
      ~columns:[ "metric"; "value" ]
  in
  (* known-item search: query an object by its name, find its rank *)
  let probes =
    Engine.objects eng
    |> List.filteri (fun i _ -> i mod 7 = 0)
    |> List.filter_map (fun obj ->
           match Engine.view eng obj with
           | Some v -> (
               match List.assoc_opt "name" v.fields with
               | Some name when name <> "" -> Some (obj, name)
               | Some _ | None -> None)
           | None -> None)
  in
  let rr =
    probes
    |> List.map (fun (obj, name) ->
           let hits = Engine.search eng ~limit:20 name in
           let rec rank i = function
             | [] -> 0.0
             | (h : Aladin_access.Search.hit) :: rest ->
                 if Lk.Objref.equal h.obj obj then 1.0 /. float_of_int i
                 else rank (i + 1) rest
           in
           rank 1 hits)
  in
  Ev.Report.add_row r
    [ "known-item search MRR (by name)";
      Printf.sprintf "%.3f over %d probes" (Ev.Metrics.mean rr) (List.length rr) ];
  (* SQL correctness: count via SQL = count via the relation *)
  let sql_exn q =
    match Engine.query eng q with Ok r -> r | Error m -> invalid_arg m
  in
  let sql_count = Rel.Relation.cardinality (sql_exn "SELECT * FROM uniprot.entry") in
  let direct =
    match Warehouse.resolve_table w "uniprot.entry" with
    | Some rel -> Rel.Relation.cardinality rel
    | None -> -1
  in
  Ev.Report.add_row r
    [ "SQL SELECT * count = direct count";
      Printf.sprintf "%d = %d (%s)" sql_count direct
        (if sql_count = direct then "ok" else "MISMATCH") ];
  let joined =
    Rel.Relation.cardinality
      (sql_exn
         "SELECT accession FROM uniprot.entry JOIN uniprot.sequence_data ON \
          uniprot.entry.entry_id = uniprot.sequence_data.entry_id")
  in
  Ev.Report.add_row r
    [ "SQL join entry x sequence rows"; string_of_int joined ];
  (* path ranking: linked objects outrank unlinked ones *)
  let paths = Engine.paths eng in
  let linked_scores, unlinked_scores =
    match Engine.links eng with
    | [] -> ([], [])
    | links ->
        let linked =
          links
          |> List.filteri (fun i _ -> i mod 11 = 0)
          |> List.map (fun (l : Lk.Link.t) ->
                 Aladin_access.Path_rank.relatedness paths l.src l.dst)
        in
        let objs = Engine.objects eng in
        let unlinked =
          match objs with
          | a :: rest ->
              rest
              |> List.filteri (fun i _ -> i mod 17 = 0)
              |> List.map (fun b -> Aladin_access.Path_rank.relatedness paths a b)
          | [] -> []
        in
        (linked, unlinked)
  in
  Ev.Report.add_row r
    [ "mean path score: linked vs random pairs";
      Printf.sprintf "%.3f vs %.3f"
        (Ev.Metrics.mean linked_scores)
        (Ev.Metrics.mean unlinked_scores) ];
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* E12 — change threshold policy (§6.2)                                *)
(* ------------------------------------------------------------------ *)

let e12_changes () =
  let r =
    Ev.Report.create
      ~title:"E12 / §6.2: re-analysis threshold vs recomputations and staleness"
      ~columns:[ "threshold"; "batches"; "reanalyses"; "max deferred rows" ]
  in
  let tiny =
    { default_corpus_params with
      universe =
        { small_universe with n_proteins = 20; n_genes = 8; n_structures = 8;
          n_diseases = 4; n_terms = 8; n_families = 4 } }
  in
  List.iter
    (fun threshold ->
      let corpus = Dg.Corpus.generate tiny in
      let cfg = { Config.default with change_threshold = threshold } in
      let w = Warehouse.integrate ~config:cfg corpus.catalogs in
      let rows =
        match Warehouse.catalog w "uniprot" with
        | Some c -> Rel.Catalog.total_rows c
        | None -> 0
      in
      let batch = max 1 (rows / 25) in
      let reanalyses = ref 0 in
      let deferred = ref 0 in
      let max_deferred = ref 0 in
      for _ = 1 to 20 do
        match Warehouse.notify_change w ~source:"uniprot" ~changed_rows:batch with
        | `Reanalyze -> begin
            incr reanalyses;
            (match Warehouse.catalog w "uniprot" with
            | Some c -> ignore (Warehouse.add_source w c)
            | None -> ());
            deferred := 0
          end
        | `Defer ->
            deferred := !deferred + batch;
            if !deferred > !max_deferred then max_deferred := !deferred
      done;
      Ev.Report.add_row r
        [ Printf.sprintf "%.2f" threshold; "20"; string_of_int !reanalyses;
          string_of_int !max_deferred ])
    [ 0.02; 0.05; 0.10; 0.25; 0.50 ];
  Ev.Report.print r

(* ------------------------------------------------------------------ *)
(* pipeline — domain-pool speedup trajectory (BENCH_pipeline.json)     *)
(* ------------------------------------------------------------------ *)

let pipeline_steps =
  [ "primary discovery"; "fk inference"; "secondary discovery";
    "link discovery"; "xref pass"; "seq pass"; "text pass";
    "duplicate detection" ]

(* total seconds per span name, summed over the whole trace tree *)
let step_seconds tr =
  let tbl = Hashtbl.create 16 in
  let rec walk sp =
    let n = Aladin_obs.Span.name sp in
    Hashtbl.replace tbl n
      (Option.value ~default:0.0 (Hashtbl.find_opt tbl n)
      +. Aladin_obs.Span.duration sp);
    List.iter walk (Aladin_obs.Span.children sp)
  in
  List.iter walk (Aladin_obs.Trace.roots tr);
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* the headline pipeline bench runs a 10x corpus so per-batch work is large
   enough to amortize the fan-out's fixed costs; the seed-comparable small
   corpus rides along so regressions against historical numbers stay
   visible *)
let pipeline_universe =
  { Dg.Universe.default_params with n_proteins = 600; n_genes = 300;
    n_structures = 250; n_diseases = 100; n_terms = 160; n_families = 80 }

let hot_steps =
  [ "fk inference"; "xref pass"; "link discovery"; "seq pass"; "text pass";
    "duplicate detection" ]

let pipeline_bench () =
  let run_corpus label (corpus : Dg.Corpus.t) =
    let run domains =
      let tr =
        Aladin_obs.Trace.create
          ~name:(Printf.sprintf "pipeline %s d=%d" label domains)
          ()
      in
      let w, wall =
        timed (fun () ->
            Warehouse.integrate
              ~config:{ Config.default with domains }
              ~trace:tr corpus.catalogs)
      in
      (* measurement isolation: join this size's workers before the next
         run — on OCaml 5 even IDLE domains tax every stop-the-world minor
         collection, so a leftover pool would slow every later run *)
      if domains > 1 then Aladin_par.Pool.(shutdown (get ~domains ()));
      (domains, wall, step_seconds tr, List.length (Warehouse.links w),
       Aladin_obs.Trace.counter_value tr "fk.accepted")
    in
    let runs = List.map run [ 1; 2; 4 ] in
    let r =
      Ev.Report.create
        ~title:
          (Printf.sprintf
             "pipeline (%s corpus): full warehouse integration at 1/2/4 \
              domains (seconds; results must be identical)"
             label)
        ~columns:(("domains" :: "wall" :: pipeline_steps) @ [ "links"; "fks" ])
    in
    List.iter
      (fun (d, wall, sec, links, fks) ->
        Ev.Report.add_row r
          ((string_of_int d :: Printf.sprintf "%.3f" wall
            :: List.map (fun s -> Printf.sprintf "%.3f" (sec s)) pipeline_steps)
          @ [ string_of_int links; string_of_int fks ]))
      runs;
    Ev.Report.print r;
    (match runs with
    | (_, _, _, links1, fks1) :: rest ->
        let same =
          List.for_all (fun (_, _, _, l, f) -> l = links1 && f = fks1) rest
        in
        Printf.printf "determinism across pool sizes (%s): %s\n" label
          (if same then "ok (links and fks identical)" else "MISMATCH")
    | [] -> ());
    runs
  in
  let speedup base_v v = if v > 0.0 then base_v /. v else 1.0 in
  let runs_json runs =
    let base =
      match runs with (_, wall, _, _, _) :: _ -> wall | [] -> 0.0
    in
    String.concat ",\n"
      (List.map
         (fun (d, wall, sec, links, fks) ->
           Printf.sprintf
             "    {\n\
             \      \"domains\": %d,\n\
             \      \"wall_seconds\": %.6f,\n\
             \      \"speedup_vs_1_domain\": %.3f,\n\
             \      \"links\": %d,\n\
             \      \"fks\": %d,\n\
             \      \"step_seconds\": {\n\
              %s\n\
             \      }\n\
             \    }"
             d wall (speedup base wall) links fks
             (String.concat ",\n"
                (List.map
                   (fun s -> Printf.sprintf "        %S: %.6f" s (sec s))
                   pipeline_steps)))
         runs)
  in
  let big =
    run_corpus "10x"
      (Dg.Corpus.generate
         { default_corpus_params with universe = pipeline_universe })
  in
  let small = run_corpus "small" (Dg.Corpus.generate default_corpus_params) in
  let hot_speedups =
    match (big, List.find_opt (fun (d, _, _, _, _) -> d = 4) big) with
    | (_, _, sec1, _, _) :: _, Some (_, _, sec4, _, _) ->
        String.concat ",\n"
          (List.map
             (fun s ->
               Printf.sprintf "    %S: %.3f" s (speedup (sec1 s) (sec4 s)))
             hot_steps)
    | _ -> ""
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"bench\": \"pipeline\",\n\
      \  \"corpus_seed\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"corpus\": \"10x small universe (600 proteins, 300 genes, 250 \
       structures)\",\n\
      \  \"runs\": [\n\
       %s\n\
      \  ],\n\
      \  \"hot_step_speedups_at_4_domains\": {\n\
       %s\n\
      \  },\n\
      \  \"small_corpus_runs\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      default_corpus_params.Dg.Corpus.seed
      (Domain.recommended_domain_count ())
      (runs_json big) hot_speedups (runs_json small)
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_pipeline.json\n"

(* ------------------------------------------------------------------ *)
(* resilience — error-boundary overhead on the clean path, plus the    *)
(* write-ahead journal: its clean-path overhead and how much a resume  *)
(* after a late kill saves over a cold rerun (BENCH_resilience.json)   *)
(* ------------------------------------------------------------------ *)

let bench_fresh_dir tag =
  let d = Filename.temp_file "aladin-bench" tag in
  Sys.remove d;
  d

let rec bench_rm_rf path =
  if Sys.is_directory path then begin
    Array.iter
      (fun e -> bench_rm_rf (Filename.concat path e))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let bench_rm_rf path = if Sys.file_exists path then bench_rm_rf path

let resilience_bench () =
  let corpus = Dg.Corpus.generate default_corpus_params in
  (* budgets generous enough to never fire: the cost measured is purely
     the boundary + the per-item deadline polls in the pool *)
  let generous =
    { Config.no_budgets with
      Config.primary = Some 3600.0; secondary = Some 3600.0;
      links = Some 3600.0; xref_pass = Some 3600.0; seq_pass = Some 3600.0;
      text_pass = Some 3600.0; onto_pass = Some 3600.0; dups = Some 3600.0 }
  in
  let run budgets =
    let w, wall =
      timed (fun () ->
          Warehouse.integrate ~config:{ Config.default with budgets }
            corpus.catalogs)
    in
    (wall, List.length (Warehouse.links w))
  in
  ignore (run Config.no_budgets) (* warm-up *);
  let reps = 3 in
  let sample budgets =
    let measures = List.init reps (fun _ -> run budgets) in
    ( List.fold_left (fun acc (w, _) -> min acc w) infinity measures,
      fst (List.split measures),
      snd (List.hd measures) )
  in
  let plain_wall, plain_all, plain_links = sample Config.no_budgets in
  let budg_wall, budg_all, budg_links = sample generous in
  let overhead_pct = (budg_wall -. plain_wall) /. plain_wall *. 100.0 in
  let r =
    Ev.Report.create
      ~title:
        "resilience: clean-path integration, unbudgeted vs fully budgeted \
         (best of 3)"
      ~columns:[ "variant"; "wall"; "links" ]
  in
  Ev.Report.add_row r
    [ "no budgets"; Printf.sprintf "%.3f" plain_wall; string_of_int plain_links ];
  Ev.Report.add_row r
    [ "all budgeted"; Printf.sprintf "%.3f" budg_wall; string_of_int budg_links ];
  Ev.Report.print r;
  Printf.printf "boundary overhead: %+.2f%% (links identical: %s)\n"
    overhead_pct
    (if plain_links = budg_links then "yes" else "NO");
  (* --- the write-ahead journal: clean-path overhead --- *)
  let links_csv w = Aladin_access.Link_export.to_csv (Warehouse.links w) in
  let plain_csv =
    links_csv (Warehouse.integrate ~config:Config.default corpus.catalogs)
  in
  let journaled () =
    let dir = bench_fresh_dir "wal" in
    let (w, _), wall =
      timed (fun () ->
          match Warehouse.integrate_journaled ~journal:dir corpus.catalogs with
          | Ok r -> r
          | Error e -> failwith e)
    in
    (dir, wall, links_csv w)
  in
  let cold () =
    snd (timed (fun () -> Warehouse.integrate ~config:Config.default corpus.catalogs))
  in
  (* interleave cold and journaled reps so page-cache / heap drift over
     the run biases neither variant *)
  let interleaved =
    List.init reps (fun _ ->
        let c = cold () in
        let j = journaled () in
        (c, j))
  in
  let cold_measures = List.map fst interleaved in
  let journal_measures = List.map snd interleaved in
  let journal_all = List.map (fun (_, w, _) -> w) journal_measures in
  let journal_wall = List.fold_left min infinity journal_all in
  let cold_wall = List.fold_left min infinity cold_measures in
  let journal_identical =
    List.for_all (fun (_, _, csv) -> csv = plain_csv) journal_measures
  in
  let journal_overhead_pct =
    (journal_wall -. cold_wall) /. cold_wall *. 100.0
  in
  List.iter (fun (d, _, _) -> bench_rm_rf d) journal_measures;
  Printf.printf "journal overhead: %+.2f%% (links identical: %s)\n"
    journal_overhead_pct
    (if journal_identical then "yes" else "NO");
  (* --- resume after a late kill vs a cold rerun --- *)
  let n_sources = List.length corpus.catalogs in
  let resume_once () =
    let dir = bench_fresh_dir "res" in
    Aladin_store.Fault.reset_counters ();
    (* each journaled source crosses three step boundaries; kill at the
       last source's first one, so all but one step is committed *)
    Aladin_store.Fault.arm_step ~index:(3 * (n_sources - 1));
    (match Warehouse.integrate_journaled ~journal:dir corpus.catalogs with
    | Ok _ | Error _ ->
        Aladin_store.Fault.disarm ();
        failwith "resilience bench: expected the armed kill to fire"
    | exception Aladin_store.Fault.Killed -> Aladin_store.Fault.disarm ());
    let (w, _), wall =
      timed (fun () ->
          match Warehouse.integrate_journaled ~journal:dir corpus.catalogs with
          | Ok r -> r
          | Error e -> failwith e)
    in
    bench_rm_rf dir;
    (wall, links_csv w = plain_csv)
  in
  let resume_measures = List.init reps (fun _ -> resume_once ()) in
  let resume_all = List.map fst resume_measures in
  let resume_wall = List.fold_left min infinity resume_all in
  let resume_identical = List.for_all snd resume_measures in
  let resume_ratio = resume_wall /. cold_wall in
  Printf.printf
    "resume after late kill: %.3fs vs %.3fs cold (%.0f%% of a rerun, links \
     identical: %s)\n"
    resume_wall cold_wall (resume_ratio *. 100.0)
    (if resume_identical then "yes" else "NO");
  let floats l =
    String.concat ", " (List.map (Printf.sprintf "%.6f") l)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"bench\": \"resilience\",\n\
      \  \"corpus_seed\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"unbudgeted_wall_seconds\": [%s],\n\
      \  \"budgeted_wall_seconds\": [%s],\n\
      \  \"best_unbudgeted\": %.6f,\n\
      \  \"best_budgeted\": %.6f,\n\
      \  \"overhead_percent\": %.3f,\n\
      \  \"links_identical\": %b,\n\
      \  \"journaled_wall_seconds\": [%s],\n\
      \  \"cold_wall_seconds\": [%s],\n\
      \  \"best_journaled\": %.6f,\n\
      \  \"best_cold\": %.6f,\n\
      \  \"journal_overhead_percent\": %.3f,\n\
      \  \"links_identical_after_journal\": %b,\n\
      \  \"resume_wall_seconds\": [%s],\n\
      \  \"best_resume_after_late_kill\": %.6f,\n\
      \  \"resume_to_cold_ratio\": %.3f,\n\
      \  \"links_identical_after_resume\": %b\n\
       }\n"
      default_corpus_params.Dg.Corpus.seed reps (floats plain_all)
      (floats budg_all) plain_wall budg_wall overhead_pct
      (plain_links = budg_links)
      (floats journal_all) (floats cold_measures) journal_wall cold_wall
      journal_overhead_pct journal_identical (floats resume_all) resume_wall
      resume_ratio resume_identical
  in
  let oc = open_out "BENCH_resilience.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_resilience.json\n"

(* ------------------------------------------------------------------ *)
(* bechamel microbenchmarks of the hot kernels                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let rng = Dg.Rng.create 4242 in
  let seq_a = Dg.Seq_gen.dna rng 200 in
  let seq_b = Dg.Seq_gen.mutate rng ~rate:0.05 seq_a in
  let prot_a = Dg.Seq_gen.protein rng 200 in
  let prot_b = Dg.Seq_gen.mutate rng ~rate:0.1 prot_a in
  let words =
    List.init 200 (fun i -> Printf.sprintf "token%d content word%d" i (i * 3))
  in
  let idx = Aladin_text.Inverted_index.create () in
  List.iteri
    (fun i text ->
      Aladin_text.Inverted_index.add idx ~doc_id:(string_of_int i) ~field:"f" text)
    words;
  let kidx = Aladin_seq.Kmer_index.create ~k:8 in
  for i = 0 to 99 do
    Aladin_seq.Kmer_index.add kidx ~id:(string_of_int i)
      (Dg.Seq_gen.dna rng 150)
  done;
  let set_a =
    Rel.Vset.of_list (List.init 2000 (fun i -> Rel.Value.Int i))
  in
  let set_b =
    Rel.Vset.of_list (List.init 4000 (fun i -> Rel.Value.Int i))
  in
  (* two related ~300-residue proteins, prepared once as dup detection
     prepares every field value; the kernel is the per-pair comparison *)
  let res_a = Dg.Seq_gen.protein rng 300 in
  let res_b = Dg.Seq_gen.mutate rng ~rate:0.1 res_a in
  assert (Dup.Field_sim.choose_metric res_a res_b = Dup.Field_sim.Sequence_metric);
  let field_a = Dup.Field_sim.prepare res_a and field_b = Dup.Field_sim.prepare res_b in
  let tests =
    [
      Test.make ~name:"levenshtein-24" (Staged.stage (fun () ->
          Aladin_text.Strdist.levenshtein "hexokinase glucokinase" "hexokinase glucokinases"));
      Test.make ~name:"smith-waterman-200x200" (Staged.stage (fun () ->
          Aladin_seq.Align.local_score seq_a seq_b));
      Test.make ~name:"smith-waterman-blosum62-200x200" (Staged.stage (fun () ->
          Aladin_seq.Align.local_score ~matrix:Aladin_seq.Subst_matrix.blosum62
            prot_a prot_b));
      Test.make ~name:"kmer-candidates" (Staged.stage (fun () ->
          Aladin_seq.Kmer_index.candidates kidx seq_a));
      Test.make ~name:"inverted-index-search" (Staged.stage (fun () ->
          Aladin_text.Inverted_index.search idx "token42 content"));
      Test.make ~name:"inclusion-subset-2k-4k" (Staged.stage (fun () ->
          Rel.Vset.subset set_a set_b));
      Test.make ~name:"jaro-winkler" (Staged.stage (fun () ->
          Aladin_text.Strdist.jaro_winkler "dehydrogenase" "decarboxylase"));
      Test.make ~name:"field-sim-seq-dice" (Staged.stage (fun () ->
          Dup.Field_sim.similarity_prepared field_a field_b));
    ]
  in
  let open Bechamel.Toolkit in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let grouped = Test.make_grouped ~name:"aladin" tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", ("E1: Table 1 cost/quality spectrum", e1_table1));
    ("fig2", ("E2: five-step pipeline timings", e2_pipeline));
    ("biosql", ("E3: BioSQL case study", e3_biosql));
    ("primary", ("E4: primary-relation discovery", e4_primary));
    ("secondary", ("E5: FK and secondary structure", e5_secondary));
    ("links", ("E6: xref discovery and pruning", e6_links));
    ("seqlinks", ("E7: homology links", e7_seqlinks));
    ("dups", ("E8: duplicate detection", e8_dups));
    ("propagation", ("E9: error propagation", e9_propagation));
    ("scale", ("E10: incremental addition cost", e10_scale));
    ("access", ("E11: access engine", e11_access));
    ("changes", ("E12: change threshold", e12_changes));
    ("pipeline", ("pipeline: domain-pool speedup 1/2/4", pipeline_bench));
    ("resilience", ("resilience: error-boundary overhead", resilience_bench));
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "micro" :: _ -> micro ()
  | _ :: name :: _ -> (
      match List.assoc_opt name experiments with
      | Some (_, f) -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s; known: %s micro\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
  | _ ->
      List.iter
        (fun (_, (title, f)) ->
          Printf.printf "\n######## %s ########\n%!" title;
          let (), secs = timed f in
          Printf.printf "(experiment took %.1fs)\n%!" secs)
        experiments
