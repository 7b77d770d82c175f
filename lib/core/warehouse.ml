open Aladin_relational
open Aladin_discovery
open Aladin_links
open Aladin_metadata
open Aladin_access
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
  mutable catalog_list : Catalog.t list;
  mutable profile_list : Profile_list.t;
  repo : Repository.t;
  mutable pair_store : Pair_store.t;
  gen : Generation.t;
  mutable last_report : Linker.report option;
  mutable last_dups : Dup.Dup_detect.result option;
  mutable last_delta : Delta.audit option;
  mutable cached_browser : Browser.t option;
  mutable cached_search : Search.t option;
  mutable cached_paths : Path_rank.t option;
  mutable cached_link_query : Link_query.t option;
  pending_changes : (string, int) Hashtbl.t;
  mutable feedback : Feedback.t;
  mutable last_trace : Obs.Trace.t option;
  mutable journal : Journal.t option;
}

let create ?(config = Config.default) () =
  {
    cfg = config;
    pool = Par.Pool.get ~domains:config.domains ();
    catalog_list = [];
    profile_list = Profile_list.empty;
    repo = Repository.create ();
    pair_store = Pair_store.create ();
    gen = Generation.create ();
    last_report = None;
    last_dups = None;
    last_delta = None;
    cached_browser = None;
    cached_search = None;
    cached_paths = None;
    cached_link_query = None;
    pending_changes = Hashtbl.create 8;
    feedback = Feedback.create ();
    last_trace = None;
    journal = None;
  }

let config t = t.cfg

let generation t = t.gen

let last_delta t = t.last_delta

let invalidate t =
  Generation.bump_whole t.gen;
  t.cached_browser <- None;
  t.cached_search <- None;
  t.cached_paths <- None;
  t.cached_link_query <- None

let last_trace t = t.last_trace

let run_reports t = Repository.run_reports t.repo

let run_report t source = Repository.run_report t.repo source

(* --- resilience plumbing --- *)

(* run one pipeline step inside its span, error boundary and retry
   envelope, stamping the span with the resilience status so traces show
   what degraded. Transient I/O failures (see Retry.classify) are retried
   with deterministic backoff before the boundary ever records an error;
   a second or later attempt leaves a "retry.attempts" attribute. *)
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

(* marker span for a step skipped before doing any work *)
let skipped_span name =
  Obs.Trace.ambient_span name ~attrs:[ ("status", "skipped") ] (fun () -> ())

(* steps 4+5 go through the delta pipeline: recompute only the source
   pairs the changed source touches (plus dup pairs whose exclude sets
   shifted), merge every other pair's links verbatim from the pair
   store. The repository always reflects the merged store view, and the
   typed generation records which link kinds actually changed. *)
let relink ~changed t =
  let source_order = List.map Catalog.name t.catalog_list in
  let out =
    Delta.relink ~cfg:t.cfg ~pool:t.pool ~profiles:t.profile_list
      ~source_order ~store:t.pair_store ~changed ()
  in
  t.last_report <- out.report;
  t.last_dups <- out.dups;
  t.last_delta <- Some out.audit;
  List.iter
    (fun k -> Generation.bump_kind t.gen (Link.kind_name k))
    out.changed_kinds;
  Repository.set_links t.repo
    (Feedback.filter_links t.feedback (Pair_store.all_links t.pair_store));
  Repository.set_correspondences t.repo
    (Pair_store.correspondences t.pair_store);
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
    bounded ~name:"primary discovery" ?budget:t.cfg.budgets.primary
      (fun () ->
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
        match t.cfg.budgets.secondary with
        | Some b when b <= 0.0 ->
            skipped_span "secondary discovery";
            ( None,
              Report.step "secondary discovery"
                (Report.Skipped Report.Budget_zero) )
        | budget -> (
            let res3, secs3 =
              bounded ~name:"secondary discovery" ?budget (fun () ->
                  Option.map
                    (fun (p : Primary.scored) ->
                      Secondary.discover ~max_len:t.cfg.max_path_len graph
                        ~primary:p.relation)
                    primary)
            in
            match res3 with
            | Ok secondary ->
                ( secondary,
                  Report.step ~seconds:secs3 "secondary discovery" Report.Ok )
            | Error (Report.Timeout b) ->
                ( None,
                  Report.step ~seconds:secs3 "secondary discovery"
                    (Report.Skipped (Report.Budget_exhausted b)) )
            | Error (Report.Crashed _ as e) ->
                ( None,
                  Report.step ~seconds:secs3 "secondary discovery"
                    (Report.Failed e) ))
      in
      Ok
        ( { Source_profile.profile; accession_candidates = cands; fks; graph;
            primary; secondary },
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
        let prev_catalogs = t.catalog_list in
        t.catalog_list <-
          List.filter (fun c -> Catalog.name c <> name) t.catalog_list
          @ [ catalog ];
        let import_step = import_step_report ~name ~catalog import_errors in
        (* steps 2-3. Step 2 is required: on failure the source is
           quarantined — rolled back out of the warehouse — and the
           remaining steps are skipped. *)
        match discover t catalog with
        | Error (err, secs2) ->
            t.catalog_list <- prev_catalogs;
            invalidate t;
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
            Repository.add_source t.repo sp;
            (* steps 4 + 5 *)
            let link_step, dup_step = relink ~changed:name t in
            Hashtbl.remove t.pending_changes name;
            Generation.bump_source t.gen name;
            invalidate t;
            {
              Report.source = name;
              quarantined = false;
              steps = (import_step :: steps23) @ [ link_step; dup_step ];
            })
  in
  t.last_trace <- Some tr;
  Repository.set_provenance t.repo (Obs.Sink.to_json tr);
  Repository.set_run_report t.repo report;
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
  Repository.set_run_report t.repo report;
  report

(* --- persistence: one store format for save/load and the journal --- *)

(* the one writer of warehouse state: every member as one new store
   generation, whose number it returns *)
let save_generation t dir =
  let members =
    List.concat_map
      (fun cat ->
        let prefix = Catalog.name cat ^ "/" in
        List.map
          (fun (m : Snapshot.member) -> { m with path = prefix ^ m.path })
          (Aladin_formats.Dump.members_of_catalog cat))
      t.catalog_list
    @ [
        { Snapshot.path = "sources.txt"; kind = Snapshot.Records;
          content =
            String.concat ""
              (List.map (fun c -> Catalog.name c ^ "\n") t.catalog_list) };
        { Snapshot.path = "metadata.txt"; kind = Snapshot.Records;
          content = Repository.save t.repo };
        { Snapshot.path = "pairs.txt"; kind = Snapshot.Pairs;
          content = Pair_store.save t.pair_store };
        { Snapshot.path = "feedback.txt"; kind = Snapshot.Records;
          content = Feedback.save t.feedback };
      ]
  in
  Snapshot.save dir members

let save_dir t dir = Result.map ignore (save_generation t dir)

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
        t.catalog_list <- catalogs;
        (* profiles are needed for browsing, search and later deltas;
           links come from the saved repository and pair store, so steps
           4-5 are skipped *)
        List.iter
          (fun catalog ->
            match discover t catalog with
            | Ok (sp, _) ->
                t.profile_list <- Profile_list.add t.profile_list sp;
                Repository.add_source t.repo sp
            | Error (err, _) ->
                raise
                  (Sys_error
                     (Printf.sprintf "%s: source %S: primary discovery: %s"
                        dir (Catalog.name catalog)
                        (Report.error_to_string err))))
          catalogs;
        (match Snapshot.find members "metadata.txt" with
        | Some doc ->
            let meta, dropped = Repository.load_salvaging doc in
            bump "metadata.txt" dropped;
            Repository.set_links t.repo (Repository.links meta);
            Repository.set_correspondences t.repo (Repository.correspondences meta);
            (match Repository.provenance meta with
            | Some p -> Repository.set_provenance t.repo p
            | None -> ());
            List.iter (Repository.set_run_report t.repo) (Repository.run_reports meta)
        | None -> ());
        (* the per-pair link store: restored from its own member when
           present; any missing or damaged pair groups (and whole stores
           saved before the member existed) are re-seeded by partitioning
           the repository's merged links. Nothing else is rebuilt: a
           relink keeps no index between runs. *)
        (match Snapshot.find members "pairs.txt" with
        | Some doc ->
            let ps, dropped = Pair_store.load doc in
            bump "pairs.txt" dropped;
            t.pair_store <- ps
        | None -> ());
        Pair_store.seed_missing t.pair_store ~links:(Repository.links t.repo)
          ~correspondences:(Repository.correspondences t.repo)
      end;
      (t, !report)

(* --- write-ahead integration journal (resume protocol) ---

   A journaled step appends an intent record, runs the pipeline,
   save_dirs the warehouse into the journal's store, then appends a
   commit record naming the source, its digest and the store
   generation. Resume is load_dir of that store plus the rest of the
   plan. *)

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

let journaled_add_source ?trace ?import_errors t j catalog =
  let name = Catalog.name catalog in
  let step = "source:" ^ name in
  Fault.step step;
  let seq = Journal.intent j ~step in
  let report = add_source_raw ?trace ?import_errors t catalog in
  Fault.step (step ^ " computed");
  let* generation = save_generation t (Journal.store_dir (Journal.dir j)) in
  ignore
    (Journal.commit j ~seq ~step ~generation
       ~info:[ ("source", name); ("digest", catalog_digest catalog) ]);
  Fault.step (step ^ " committed");
  Ok report

(* public add_source: journaled when the warehouse carries a journal
   (integrate_journaled / resumed), bare otherwise *)
let add_source ?trace ?import_errors t catalog =
  match t.journal with
  | None -> add_source_raw ?trace ?import_errors t catalog
  | Some j -> (
      match journaled_add_source ?trace ?import_errors t j catalog with
      | Ok report -> report
      | Error e -> raise (Sys_error e))

(* journaled steps in plan order, stopping at the first checkpoint that
   could not be saved *)
let rec run_journaled ?trace t j = function
  | [] -> Ok ()
  | c :: rest ->
      let* _ = journaled_add_source ?trace t j c in
      run_journaled ?trace t j rest

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

(* what a resume restores: the journal store, loaded as any store is,
   and the plan's committed sources it stands for. One rule for resume
   and journal_status. A store older than the last commit was replaced
   behind the journal's back (a save never moves the manifest
   backwards), so refuse it. A store that does not load clean, or holds
   no run report for some committed source, restores nothing ([None]):
   the whole plan re-runs, the same bytes at the cost of more work. *)
let checkpoint ~config journal (r : Journal.replay) plan =
  match List.rev r.committed with
  | [] -> Ok None
  | last :: _ -> (
      match load_dir ~config (Journal.store_dir journal) with
      | exception Sys_error _ -> Ok None
      | _, (rep : Load_report.t) when rep.generation < last.generation ->
          Error
            (Printf.sprintf
               "journal store is at generation %d, older than the last \
                commit's %d; it was replaced or rolled back"
               rep.generation last.generation)
      | t, rep ->
          let committed =
            List.filter_map
              (fun (n, _, _) ->
                if
                  List.exists
                    (fun (c : Journal.committed) ->
                      List.assoc_opt "source" c.info = Some n)
                    r.committed
                then Some n
                else None)
              plan
          in
          if
            Load_report.is_clean rep
            && List.for_all (fun n -> Option.is_some (run_report t n)) committed
          then Ok (Some (t, committed))
          else Ok None)

type resume_info = {
  resumed_sources : string list;
  executed_sources : string list;
  dropped_records : int;
}

type journal_source = {
  js_name : string;
  js_path : string option;
  js_committed : bool;
}

let journal_status ?(config = Config.default) journal =
  let* r = Journal.replay journal in
  let* plan = plan_of_meta r.meta in
  let* cp = checkpoint ~config journal r plan in
  let restored = match cp with Some (_, names) -> names | None -> [] in
  Ok
    (List.map
       (fun (n, _, path) ->
         { js_name = n; js_path = path; js_committed = List.mem n restored })
       plan)

let resume_journaled ~config ?trace journal catalogs =
  let* j, r = Journal.open_resume journal in
  let* plan = plan_of_meta r.meta in
  let* () =
    if List.assoc_opt "config" r.meta = Some (config_digest config) then Ok ()
    else
      Error
        "journal was written under a different configuration; resume with \
         the original one"
  in
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
  let* cp = checkpoint ~config journal r plan in
  let t, restored =
    match cp with
    | Some (t, restored) ->
        List.iter
          (fun rep -> Repository.set_run_report t.repo (Report.mark_resumed rep))
          (Repository.run_reports t.repo);
        (t, restored)
    | None -> (create ~config (), [])
  in
  t.journal <- Some j;
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
  (* the store stood for none of the commits: void them before the
     re-run saves over it, so a later resume neither restores them nor
     weighs the new generations against theirs *)
  if Option.is_none cp && r.committed <> [] then Journal.reset j;
  let* () = run_journaled ?trace t j todo in
  Ok
    ( t,
      { resumed_sources = restored;
        executed_sources = List.map Catalog.name todo;
        dropped_records = r.dropped } )

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
      resume_journaled ~config ?trace journal catalogs
  | None ->
      let entries =
        List.map
          (fun c ->
            ( Catalog.name c,
              catalog_digest c,
              List.assoc_opt (Catalog.name c) source_paths ))
          catalogs
      in
      let* j = Journal.create journal ~meta:(plan_meta ~cfg:config entries) in
      let t = create ~config () in
      t.journal <- Some j;
      let* () = run_journaled ?trace t j catalogs in
      Ok
        ( t,
          { resumed_sources = []; executed_sources = names;
            dropped_records = 0 } )

let integrate ?config ?trace catalogs =
  let t = create ?config () in
  List.iter (fun c -> ignore (add_source ?trace t c)) catalogs;
  t

let sources t = List.map Catalog.name t.catalog_list

let catalogs t = t.catalog_list

let catalog t name = List.find_opt (fun c -> Catalog.name c = name) t.catalog_list

let profiles t = t.profile_list

let profile t name =
  Option.map
    (fun (e : Profile_list.entry) -> e.sp)
    (Profile_list.find t.profile_list name)

let links t = Repository.links t.repo

let link_report t = t.last_report

let duplicates t = t.last_dups

let repository t = t.repo

let browser t =
  match t.cached_browser with
  | Some b -> b
  | None ->
      let b = Browser.create t.profile_list t.repo in
      t.cached_browser <- Some b;
      b

let search t =
  match t.cached_search with
  | Some s -> s
  | None ->
      let s = Search.build t.profile_list in
      t.cached_search <- Some s;
      s

let path_index t =
  match t.cached_paths with
  | Some p -> p
  | None ->
      let p = Path_rank.build (links t) in
      t.cached_paths <- Some p;
      p

let resolve_table t name =
  match String.index_opt name '.' with
  | Some i ->
      let source = String.sub name 0 i in
      let rel = String.sub name (i + 1) (String.length name - i - 1) in
      Option.bind (catalog t source) (fun c -> Catalog.find c rel)
  | None -> (
      let hits =
        List.filter_map (fun c -> Catalog.find c name) t.catalog_list
      in
      match hits with [ r ] -> Some r | [] | _ :: _ :: _ -> None)

let sql t query = Sql_eval.run ~resolve:(resolve_table t) query

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

let link_query t =
  match t.cached_link_query with
  | Some q -> q
  | None ->
      let q = Link_query.create (links t) in
      t.cached_link_query <- Some q;
      q

let feedback t = t.feedback

let reject_link t (l : Link.t) =
  Feedback.reject_link t.feedback l;
  Repository.set_links t.repo (Feedback.filter_links t.feedback (links t));
  (* only this link's kind changed; routes watching other kinds keep
     their cached responses *)
  Generation.bump_kind t.gen (Link.kind_name l.kind);
  invalidate t

let reject_fk t ~source fk =
  Feedback.reject_fk t.feedback ~source fk;
  match catalog t source with
  | Some cat -> ignore (add_source t cat)
  | None -> ()
