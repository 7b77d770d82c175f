open Aladin_relational
open Aladin_discovery
open Aladin_links
open Aladin_metadata
module Dup = Aladin_dup
module Obs = Aladin_obs
module Par = Aladin_par
module Res = Aladin_resilience
module Run_report = Aladin_resilience.Run_report
module Import_error = Aladin_resilience.Import_error
module Report = Run_report
module Snapshot = Aladin_store.Snapshot
module Load_report = Aladin_store.Load_report
module Journal = Aladin_store.Journal
module Fault = Aladin_store.Fault
module Crc32 = Aladin_store.Crc32

type t = {
  cfg : Config.t;
  pool : Par.Pool.t;
  mutable profile_list : Profile_list.t;
      (* the one record of each source: its catalog is the profile's *)
  mutable reports : Run_report.t list;
      (* the latest per source, in the order they were last recorded *)
  mutable provenance : string option;  (* the last run's trace, as JSON *)
  mutable pair_store : Pair_store.t;
  mutable link_view : Link.t list;
      (* the pair store's merged links less the rejected ones *)
  gen : Generation.t;
  mutable last_delta : Delta.audit option;
  pending_changes : (string, int) Hashtbl.t;
  mutable feedback : Feedback.t;
  mutable last_trace : Obs.Trace.t option;
  mutable journal : string option;  (* the journal directory, if any *)
}

let create ?(config = Config.default) () =
  {
    cfg = config;
    pool = Par.Pool.get ~domains:config.domains ();
    profile_list = Profile_list.empty;
    reports = [];
    provenance = None;
    pair_store = Pair_store.create ();
    link_view = [];
    gen = Generation.create ();
    last_delta = None;
    pending_changes = Hashtbl.create 8;
    feedback = Feedback.create ();
    last_trace = None;
    journal = None;
  }

let generation t = t.gen

let last_delta t = t.last_delta

let last_trace t = t.last_trace

let run_reports t = t.reports

let run_report t source =
  List.find_opt (fun (r : Report.t) -> r.source = source) t.reports

let record_report t (r : Report.t) =
  t.reports <-
    List.filter (fun (r' : Report.t) -> r'.source <> r.source) t.reports @ [ r ]

let sources t = Profile_list.sources t.profile_list

let catalog_of (e : Profile_list.entry) = Profile.catalog e.sp.profile

let catalogs t = List.map catalog_of (Profile_list.entries t.profile_list)

let catalog t name = Option.map catalog_of (Profile_list.find t.profile_list name)

(* the warehouse's link view of the pair store: [merged] (the store's
   [Pair_store.all_links], already deduplicated, so it is filtered, not
   merged again) less the rejected links. A relink, [load_dir] and
   [reject_link] set it; every other link-shaped value is derived from
   it or read from the pair store. *)
let set_link_view t merged =
  t.link_view <- Feedback.filter_links t.feedback merged

(* steps 4+5 go through the delta pipeline: recompute only the source
   pairs the changed source touches (plus dup pairs whose exclude sets
   shifted), merge every other pair's links verbatim from the pair
   store. The link view always reflects the merged store, and the typed
   generation records which link kinds actually changed. *)
let relink ~changed t =
  let source_order = sources t in
  let out =
    Delta.relink ~cfg:t.cfg ~pool:t.pool ~profiles:t.profile_list
      ~source_order ~store:t.pair_store ~changed ()
  in
  t.last_delta <- Some out.audit;
  List.iter
    (fun k -> Generation.bump_kind t.gen (Link.kind_name k))
    out.changed_kinds;
  set_link_view t out.links;
  (out.link_step, out.dup_step)

let import_step_report ~name ~catalog import_errors =
  let outcome =
    match import_errors with
    | [] -> Report.Ok
    | errs ->
        Report.Degraded
          (List.map
             (fun (e : Res.Import_error.record_error) ->
               {
                 Report.code = "record_error";
                 detail = Res.Import_error.record_error_to_string e;
               })
             errs)
  in
  (* step 1 ran when the caller produced the catalog; a marker span keeps
     all five steps visible in every trace *)
  Obs.Trace.ambient_span "import"
    ~attrs:
      [ ("source", name);
        ("rows", string_of_int (Catalog.total_rows catalog));
        ("status", Report.outcome_name outcome) ]
    (fun () -> ());
  Report.step "import" outcome

(* steps 2 + 3 for one source, each inside its error boundary. This is
   the one place a Source_profile.t is built: add_source, resume and
   load_dir all profile through it, so rejected FKs, max_path_len and
   the budget-zero secondary skip apply alike. Returns the profile with
   the two step reports, or step 2's error and duration. *)
let discover t catalog =
  let name = Catalog.name catalog in
  (* step 2: profile + accession + FK inference + primary choice *)
  let res2, secs2 =
    Res.Boundary.bounded ~name:"primary discovery"
      ?budget:t.cfg.budgets.primary (fun () ->
        let profile =
          Obs.Trace.ambient_span "profile" (fun () -> Profile.compute catalog)
        in
        let cands =
          Obs.Trace.ambient_span "accession candidates" (fun () ->
              Accession.candidates ~params:t.cfg.accession profile)
        in
        let fks =
          Obs.Trace.ambient_span "fk inference" (fun () ->
              Feedback.filter_fks t.feedback ~source:name
                (Inclusion.infer ~params:t.cfg.inclusion ~pool:t.pool profile))
        in
        let graph, primary =
          Obs.Trace.ambient_span "primary choice" (fun () ->
              let graph =
                Fk_graph.build ~relations:(Catalog.relation_names catalog) fks
              in
              (graph, Primary.choose graph cands))
        in
        (profile, cands, fks, graph, primary))
  in
  match res2 with
  | Error err -> Error (err, secs2)
  | Ok (profile, cands, fks, graph, primary) ->
      (* step 3: secondary structure. Optional: a timeout or crash just
         means no secondary relations for this source. *)
      let secondary, step3 =
        Res.Boundary.optional ~name:"secondary discovery"
          ~budget:t.cfg.budgets.secondary (fun () ->
            Option.map
              (fun (p : Primary.scored) ->
                Secondary.discover ~max_len:t.cfg.max_path_len graph
                  ~primary:p.relation)
              primary)
      in
      Ok
        ( { Source_profile.profile; accession_candidates = cands; fks; graph;
            primary; secondary = Option.join secondary },
          [ Report.step ~seconds:secs2 "primary discovery" Report.Ok; step3 ] )

let add_source_raw ?trace ?(import_errors = []) t catalog =
  let name = Catalog.name catalog in
  let tr =
    match trace with
    | Some tr -> tr
    | None -> Obs.Trace.create ~name:(Printf.sprintf "add-source %s" name) ()
  in
  let report =
    Obs.Trace.with_ambient tr (fun () ->
        let import_step = import_step_report ~name ~catalog import_errors in
        (* steps 2-3. Step 2 is required: on failure the source is
           quarantined — it never enters the warehouse, which keeps any
           earlier version — and the remaining steps are skipped. *)
        match discover t catalog with
        | Error (err, secs2) ->
            Generation.bump_whole t.gen;
            let dep n =
              Report.step n
                (Report.Skipped (Report.Dependency_failed "primary discovery"))
            in
            {
              Report.source = name;
              quarantined = true;
              steps =
                [ import_step;
                  Report.step ~seconds:secs2 "primary discovery"
                    (Report.Failed err);
                  dep "secondary discovery"; dep "link discovery";
                  dep "duplicate detection" ];
            }
        | Ok (sp, steps23) ->
            t.profile_list <- Profile_list.add t.profile_list sp;
            (* steps 4 + 5 *)
            let link_step, dup_step = relink ~changed:name t in
            Hashtbl.remove t.pending_changes name;
            Generation.bump_source t.gen name;
            Generation.bump_whole t.gen;
            {
              Report.source = name;
              quarantined = false;
              steps = (import_step :: steps23) @ [ link_step; dup_step ];
            })
  in
  t.last_trace <- Some tr;
  t.provenance <- Some (Obs.Sink.to_json tr);
  record_report t report;
  report

let report_import_failure t ~source err =
  let dep n =
    Report.step n (Report.Skipped (Report.Dependency_failed "import"))
  in
  let report =
    {
      Report.source;
      quarantined = true;
      steps =
        [ Report.step "import"
            (Report.Failed (Report.Crashed (Res.Import_error.to_string err)));
          dep "primary discovery"; dep "secondary discovery";
          dep "link discovery"; dep "duplicate detection" ];
    }
  in
  record_report t report;
  report

(* --- persistence: one store format for save/load and the journal --- *)

let metadata t =
  Repository.render
    ~profiles:
      (List.map
         (fun (e : Profile_list.entry) -> e.sp)
         (Profile_list.entries t.profile_list))
    ~reports:t.reports ~provenance:t.provenance

(* the snapshot members of the warehouse's state *)
let store_members t =
  List.concat_map
    (fun cat ->
      let prefix = Catalog.name cat ^ "/" in
      List.map
        (fun (m : Snapshot.member) -> { m with path = prefix ^ m.path })
        (Aladin_formats.Dump.members_of_catalog cat))
    (catalogs t)
  @ [
      { Snapshot.path = "sources.txt"; kind = Snapshot.Records;
        content = String.concat "" (List.map (fun s -> s ^ "\n") (sources t)) };
      { Snapshot.path = "metadata.txt"; kind = Snapshot.Records;
        content = metadata t };
      { Snapshot.path = "pairs.txt"; kind = Snapshot.Records;
        content = Pair_store.save t.pair_store };
      { Snapshot.path = "feedback.txt"; kind = Snapshot.Records;
        content = Feedback.save t.feedback };
    ]

(* Until member paths encode source names, a name that sources.txt (one
   name per line) or a <source>/ member path cannot give back is refused:
   "x/y" would load as source x's relation "y/entry", and a name holding
   a newline would be lost. *)
let unstorable_name name = String.contains name '/' || String.contains name '\n'

(* the one writer of warehouse state: every member as one new store
   generation *)
let save_dir t dir =
  match List.find_opt unstorable_name (sources t) with
  | Some name ->
      Error
        (Printf.sprintf "source %S: a name holding '/' or a newline cannot be stored"
           name)
  | None -> Result.map ignore (Snapshot.save dir (store_members t))

(* the source directories present among the member paths, in first-seen
   (save) order — the fallback when sources.txt itself was lost *)
let sources_of_members members =
  List.fold_left
    (fun acc (m : Snapshot.member) ->
      match String.index_opt m.path '/' with
      | Some i ->
          let s = String.sub m.path 0 i in
          if List.mem s acc then acc else s :: acc
      | None -> acc)
    [] members
  |> List.rev

let load_dir ?config ?(reanalyze = false) dir =
  match Snapshot.load dir with
  | Error msg -> raise (Sys_error msg)
  | Ok (members, report) ->
      let report = ref report in
      let bump path n = report := Load_report.bump_salvaged !report path n in
      let t = create ?config () in
      (* feedback first: both modes profile and link through it *)
      (match Snapshot.find members "feedback.txt" with
      | Some doc ->
          let saved, dropped = Feedback.load_salvaging doc in
          bump "feedback.txt" dropped;
          t.feedback <- saved
      | None -> ());
      let source_names =
        match Snapshot.find members "sources.txt" with
        | Some doc -> String.split_on_char '\n' doc |> List.filter (( <> ) "")
        | None -> sources_of_members members
      in
      let catalogs =
        List.filter_map
          (fun name ->
            let prefix = name ^ "/" in
            let plen = String.length prefix in
            let local =
              List.filter_map
                (fun (m : Snapshot.member) ->
                  if String.starts_with ~prefix m.path then
                    Some
                      ( String.sub m.path plen (String.length m.path - plen),
                        m.content )
                  else None)
                members
            in
            let cat, errs =
              Aladin_formats.Dump.catalog_of_members ~name local
            in
            (* decode-layer drops (e.g. rows a salvaged CSV lost to raggedness)
               surface on the member that caused them *)
            List.iter
              (fun (e : Import_error.record_error) ->
                match String.index_opt e.reason ':' with
                | Some i -> bump (prefix ^ String.sub e.reason 0 i) 1
                | None -> ())
              errs;
            if Catalog.relations cat = [] then None else Some cat)
          source_names
      in
      if reanalyze then
        List.iter (fun c -> ignore (add_source_raw t c)) catalogs
      else begin
        (* profiles are needed for browsing, search and later deltas;
           links come from the saved pair store, so steps 4-5 are
           skipped *)
        List.iter
          (fun catalog ->
            match discover t catalog with
            | Ok (sp, _) -> t.profile_list <- Profile_list.add t.profile_list sp
            | Error (err, _) ->
                raise
                  (Sys_error
                     (Printf.sprintf "%s: source %S: primary discovery: %s"
                        dir (Catalog.name catalog)
                        (Report.error_to_string err))))
          catalogs;
        (* the per-pair link store, the one record of links and
           correspondences: restored from its own member *)
        (match Snapshot.find members "pairs.txt" with
        | Some doc ->
            let ps, dropped = Pair_store.load doc in
            bump "pairs.txt" dropped;
            t.pair_store <- ps
        | None -> ());
        (match Snapshot.find members "metadata.txt" with
        | Some doc ->
            (* the source blocks are rendered from the profiles just
               rebuilt; the reports and the provenance are all it adds *)
            let meta = Repository.read doc in
            List.iter (record_report t) meta.reports;
            t.provenance <- meta.provenance;
            (* a metadata.txt saved before the pair store held the only
               copy carries the links too: they re-seed the pairs that
               pairs.txt lacks (all of them when it predates the member) *)
            let seed_dropped = Pair_store.seed_missing t.pair_store doc in
            bump "metadata.txt" (meta.dropped + seed_dropped)
        | None -> ());
        (* the link view is derived, as after a relink. Nothing else is
           rebuilt: a relink keeps no index between runs. *)
        set_link_view t (Pair_store.all_links t.pair_store)
      end;
      (t, !report)

(* --- journaled integration (resume protocol) ---

   A journaled step runs the pipeline, then save_dirs the warehouse into
   the journal's store: the manifest rename commits the step. Resume is
   load_dir of that store plus the rest of the plan. *)

(* content digest of a catalog, over exactly the members a store holds —
   detects a re-supplied source file that differs from the one the
   journal was written against *)
let catalog_digest catalog =
  Aladin_formats.Dump.members_of_catalog catalog
  |> List.fold_left
       (fun acc (m : Snapshot.member) ->
         Crc32.update (Crc32.update acc m.path) m.content)
       0
  |> Crc32.to_hex

let config_digest cfg = Crc32.to_hex (Crc32.string (Config.to_string cfg))

let ( let* ) = Result.bind

let journaled_add_source ?trace ?import_errors t journal catalog =
  let step = "source:" ^ Catalog.name catalog in
  Fault.step step;
  let report = add_source_raw ?trace ?import_errors t catalog in
  Fault.step (step ^ " computed");
  let* () = save_dir t (Journal.store_dir journal) in
  Fault.step (step ^ " committed");
  Ok report

(* public add_source: journaled when the warehouse carries a journal
   (integrate_journaled / resumed), bare otherwise *)
let add_source ?trace ?import_errors t catalog =
  match t.journal with
  | None -> add_source_raw ?trace ?import_errors t catalog
  | Some journal -> (
      match journaled_add_source ?trace ?import_errors t journal catalog with
      | Ok report -> report
      | Error e -> raise (Sys_error e))

(* journaled steps in plan order, stopping at the first checkpoint that
   could not be saved *)
let rec run_journaled ?trace t journal = function
  | [] -> Ok ()
  | c :: rest ->
      let* _ = journaled_add_source ?trace t journal c in
      run_journaled ?trace t journal rest

(* --- the integration plan, carried in the journal header --- *)

let plan_meta ~cfg entries =
  ("config", config_digest cfg)
  :: ("sources", string_of_int (List.length entries))
  :: List.concat
       (List.mapi
          (fun i (name, digest, path) ->
            let key k = Printf.sprintf "source.%d.%s" i k in
            [ (key "name", name); (key "digest", digest) ]
            @ (match path with Some p -> [ (key "path", p) ] | None -> []))
          entries)

let plan_of_meta meta =
  match Option.bind (List.assoc_opt "sources" meta) int_of_string_opt with
  | None -> Error "journal header carries no integration plan"
  | Some n ->
      let rec go acc i =
        if i >= n then Ok (List.rev acc)
        else
          let key k = Printf.sprintf "source.%d.%s" i k in
          match
            (List.assoc_opt (key "name") meta,
             List.assoc_opt (key "digest") meta)
          with
          | Some name, Some digest ->
              go
                ((name, digest, List.assoc_opt (key "path") meta) :: acc)
                (i + 1)
          | _ -> Error "journal header carries a truncated integration plan"
      in
      go [] 0

(* what a resume restores: one rule for resume and journal_status. The
   store's manifest is the commit record, so the store is loaded as any
   store is. When it loads clean and its run reports name exactly a
   prefix of the plan, that prefix comes back. Otherwise — no store, a
   damaged one, or reports beyond the prefix (a source missing in the
   middle, or one foreign to the plan) — nothing is restored ([None])
   and the whole plan re-runs over the store, the same bytes at the cost
   of more work. *)
let checkpoint ~config journal plan =
  match load_dir ~config (Journal.store_dir journal) with
  | exception Sys_error _ -> None
  | t, rep when Load_report.is_clean rep ->
      let rec prefix = function
        | (n, _, _) :: rest when Option.is_some (run_report t n) ->
            n :: prefix rest
        | _ -> []
      in
      let restored = prefix plan in
      if
        List.for_all
          (fun (r : Report.t) -> List.mem r.source restored)
          t.reports
      then Some (t, restored)
      else None
  | _ -> None

type resume_info = {
  resumed_sources : string list;
  executed_sources : string list;
}

type journal_source = {
  js_name : string;
  js_path : string option;
  js_committed : bool;
}

let journal_status journal =
  let* plan = Result.bind (Journal.plan journal) plan_of_meta in
  let restored =
    match checkpoint ~config:Config.default journal plan with
    | Some (_, names) -> names
    | None -> []
  in
  Ok
    (List.map
       (fun (n, _, path) ->
         { js_name = n; js_path = path; js_committed = List.mem n restored })
       plan)

(* a resume of [journal]: the store is loaded once, by [checkpoint], and
   [supply plan restored] then gives the catalogs of the plan's steps
   that load did not restore *)
let resume ~config ?trace journal supply =
  let* meta = Journal.plan journal in
  let* plan = plan_of_meta meta in
  let* () =
    if List.assoc_opt "config" meta = Some (config_digest config) then Ok ()
    else
      Error
        "journal was written under a different configuration; resume with \
         the original one"
  in
  let loaded = checkpoint ~config journal plan in
  let restored = match loaded with Some (_, names) -> names | None -> [] in
  let catalogs = supply plan restored in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        let n = Catalog.name c in
        match List.find_opt (fun (pn, _, _) -> pn = n) plan with
        | None ->
            Error (Printf.sprintf "source %S is not part of the journaled plan" n)
        | Some (_, digest, _) when catalog_digest c <> digest ->
            Error
              (Printf.sprintf
                 "source %S differs from the journaled plan (digest mismatch)" n)
        | Some _ -> Ok ())
      (Ok ()) catalogs
  in
  let t =
    match loaded with
    | Some (t, _) ->
        t.reports <- List.map Report.mark_resumed t.reports;
        t
    | None -> create ~config ()
  in
  t.journal <- Some journal;
  (* the plan's steps that are not restored, in plan order *)
  let rec to_run = function
    | [] -> Ok []
    | (n, _, _) :: rest when List.mem n restored -> to_run rest
    | (n, _, path) :: rest -> (
        match List.find_opt (fun c -> Catalog.name c = n) catalogs with
        | Some c -> Result.map (List.cons c) (to_run rest)
        | None ->
            Error
              (Printf.sprintf
                 "source %S has no usable checkpoint in the journal and was \
                  not re-supplied%s"
                 n
                 (match path with
                 | Some p -> Printf.sprintf " (originally imported from %s)" p
                 | None -> "")))
  in
  let* todo = to_run plan in
  let* () = run_journaled ?trace t journal todo in
  Ok
    ( t,
      { resumed_sources = restored;
        executed_sources = List.map Catalog.name todo } )

let resume_journal ?(config = Config.default) ?trace ~import journal =
  resume ~config ?trace journal (fun plan restored ->
      List.filter_map
        (fun (n, _, path) ->
          if List.mem n restored then None else Option.map import path)
        plan)

let integrate_journaled ?(config = Config.default) ?trace ?(source_paths = [])
    ~journal catalogs =
  let names = List.map Catalog.name catalogs in
  let rec first_dup = function
    | [] -> None
    | n :: rest -> if List.mem n rest then Some n else first_dup rest
  in
  match first_dup names with
  | Some n ->
      Error
        (Printf.sprintf "duplicate source name %S in the integration plan" n)
  | None when Journal.exists journal ->
      resume ~config ?trace journal (fun _ _ -> catalogs)
  | None ->
      let entries =
        List.map
          (fun c ->
            ( Catalog.name c,
              catalog_digest c,
              List.assoc_opt (Catalog.name c) source_paths ))
          catalogs
      in
      let* () = Journal.create journal ~meta:(plan_meta ~cfg:config entries) in
      let t = create ~config () in
      t.journal <- Some journal;
      let* () = run_journaled ?trace t journal catalogs in
      Ok (t, { resumed_sources = []; executed_sources = names })

let integrate ?config ?trace catalogs =
  let t = create ?config () in
  List.iter (fun c -> ignore (add_source ?trace t c)) catalogs;
  t

let profiles t = t.profile_list

let profile t name =
  Option.map
    (fun (e : Profile_list.entry) -> e.sp)
    (Profile_list.find t.profile_list name)

let links t = t.link_view

let correspondences t = Pair_store.correspondences t.pair_store

let duplicates t =
  Dup.Dup_detect.result_of_links
    ~candidates_checked:(Pair_store.dup_candidates_total t.pair_store)
    (List.filter (fun (l : Link.t) -> l.kind = Link.Duplicate) t.link_view)

(* each source's representations as the dup pass built them: under its
   current exclude triples, the ones [Dup_detect.prep_source] was given *)
let dup_reprs t =
  List.concat_map
    (fun source ->
      Dup.Object_sim.build_reprs
        ~exclude_attributes:(Pair_store.exclude_triples t.pair_store ~source)
        (Profile_list.restrict t.profile_list [ source ]))
    (sources t)

let explain_duplicates t =
  Dup.Dup_detect.explain (dup_reprs t) (duplicates t).links

let resolve_table t name =
  match String.index_opt name '.' with
  | Some i ->
      let source = String.sub name 0 i in
      let rel = String.sub name (i + 1) (String.length name - i - 1) in
      Option.bind (catalog t source) (fun c -> Catalog.find c rel)
  | None -> (
      let hits = List.filter_map (fun c -> Catalog.find c name) (catalogs t) in
      match hits with [ r ] -> Some r | [] | _ :: _ :: _ -> None)

let notify_change t ~source ~changed_rows =
  let prior = try Hashtbl.find t.pending_changes source with Not_found -> 0 in
  let total = prior + changed_rows in
  Hashtbl.replace t.pending_changes source total;
  let rows =
    match catalog t source with Some c -> Catalog.total_rows c | None -> 0
  in
  if rows = 0 then `Reanalyze
  else if float_of_int total /. float_of_int rows >= t.cfg.change_threshold then
    `Reanalyze
  else `Defer

type update_report = {
  outcome : [ `Reanalyzed of Run_report.t | `Deferred ];
  delta : Delta.audit option;
      (* which source pairs the reanalysis recomputed vs reused; None
         when the change was deferred (nothing ran) *)
}

let update_source t new_catalog ~changed_rows =
  let source = Catalog.name new_catalog in
  match notify_change t ~source ~changed_rows with
  | `Defer -> { outcome = `Deferred; delta = None }
  | `Reanalyze ->
      Hashtbl.remove t.pending_changes source;
      let report = add_source t new_catalog in
      { outcome = `Reanalyzed report; delta = t.last_delta }

let feedback t = t.feedback

let reject_link t (l : Link.t) =
  Feedback.reject_link t.feedback l;
  set_link_view t t.link_view;
  (* only this link's kind changed; routes reading other kinds, or no
     link at all, keep their cached responses *)
  Generation.bump_kind t.gen (Link.kind_name l.kind)
