(* The ALADIN command-line front end.

   aladin integrate FILE...     integrate sources, print the summary
   aladin discover FILE         steps 1-3 for one source, print structure
   aladin browse FILE... -a ACC render one object's page
   aladin search FILE... -q Q   ranked full-text search
   aladin query FILE... -s SQL  run SQL over the warehouse
   aladin links FILE...         list discovered links
   aladin trace FILE...         integrate and report the execution trace
   aladin serve FILE...         long-lived cached query-serving daemon
   aladin fetch TARGET          one HTTP request against a running server
   aladin demo                  integrate a generated synthetic corpus
   aladin add STORE FILE...     add sources to a saved store (delta only)
   aladin load DIR              restore a saved warehouse store
   aladin fsck DIR              verify (or --repair) a warehouse store

   Access commands (browse, search, query, links, export, serve) all go
   through the Aladin.Engine facade: the warehouse and its access
   structures are built once per invocation and shared. Flag specs and
   exit codes (0 ok / 1 degraded under --strict / 2 error) live in
   Cli_common. *)

open Cmdliner
open Aladin
open Cli_common
module Run_report = Aladin_resilience.Run_report
module Snapshot = Aladin_store.Snapshot
module Load_report = Aladin_store.Load_report

(* --- integrate --- *)

let integrate_cmd =
  let save =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"META"
           ~doc:"Write the metadata repository to $(docv): the sources \
                 with their discovered structure and statistics, the run \
                 reports and the provenance trace. It holds no links; \
                 $(b,--links-out) exports those.")
  in
  (* positional FILEs are optional here (unlike paths_arg): a --resume
     can re-import uncommitted sources from the paths the journal
     recorded at first integrate *)
  let loose_paths =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Source files or dump directories.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
           ~doc:"Run journaled at $(docv), which must be empty or absent: \
                 the plan is written to $(docv)/JOURNAL, and after each \
                 source addition the warehouse is saved into the store \
                 $(docv)/store, so a killed process resumes with \
                 $(b,--resume) $(docv) in O(remaining work).")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR"
           ~doc:"Resume a killed journaled integration from $(docv). \
                 Committed steps are restored by loading $(docv)/store; \
                 omitted FILEs are re-imported from the paths the \
                 journal recorded.")
  in
  let links_out_arg =
    Arg.(value & opt (some string) None & info [ "links-out" ] ~docv:"FILE"
           ~doc:"Export the final link set to $(docv) as CSV.")
  in
  let save_store_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR"
           ~doc:"Also save the integrated warehouse as a store under \
                 $(docv) (for later 'aladin add'/'load'/'serve --store').")
  in
  let kill_step_arg =
    Arg.(value & opt (some int) None & info [ "chaos-kill-step" ] ~docv:"N"
           ~doc:"(testing) Kill the process at the $(docv)-th pipeline \
                 step boundary; exits 3.")
  in
  let run paths journal resume save links_out save_store config strict
      trace_file kill_step =
    (match kill_step with
    | Some i -> Aladin_store.Fault.arm_step ~index:i
    | None -> ());
    let journal_dir =
      match (journal, resume) with
      | Some _, Some _ ->
          die "aladin: --journal and --resume are mutually exclusive"
      | Some d, None ->
          if Aladin_store.Journal.exists d then
            die "aladin: %s already holds a journal (use --resume %s)" d d;
          Some d
      | None, Some d ->
          if not (Aladin_store.Journal.exists d) then
            die "aladin: %s: no journal to resume" d;
          Some d
      | None, None -> None
    in
    if paths = [] && resume = None then die "aladin: no source files given";
    match
      with_trace_file trace_file (fun trace ->
          let w, resume_note =
            match journal_dir with
            | None ->
                ( Aladin_system.integrate_paths ~config:(load_config config)
                    ?trace paths,
                  "" )
            | Some dir ->
                (* journaled import is strict: a source that cannot be
                   imported would poison the recorded plan *)
                let cfg = load_config config in
                let result =
                  if paths = [] then
                    (* re-import, from the paths the plan recorded, only
                       what the journal's store does not hold *)
                    Warehouse.resume_journal ~config:cfg ?trace
                      ~import:import_or_die dir
                  else
                    let catalogs = List.map import_or_die paths in
                    let source_paths =
                      List.map2
                        (fun p c -> (Aladin_relational.Catalog.name c, p))
                        paths catalogs
                    in
                    Warehouse.integrate_journaled ~config:cfg ?trace
                      ~source_paths ~journal:dir catalogs
                in
                (match result with
                | Error e -> die "aladin: %s" e
                | Ok (w, (info : Warehouse.resume_info)) ->
                    let note =
                      if resume = None then ""
                      else
                        Printf.sprintf "resumed %d committed step%s, executed %d\n"
                          (List.length info.resumed_sources)
                          (if List.length info.resumed_sources = 1 then ""
                           else "s")
                          (List.length info.executed_sources)
                    in
                    (w, note))
          in
          print_string resume_note;
          print_string (Aladin_system.summary w);
          let reports = Warehouse.run_reports w in
          List.iter (fun r -> print_string (Run_report.render r)) reports;
          (match save with
          | Some path ->
              Aladin_store.Atomic_file.write path (Warehouse.metadata w);
              Printf.printf "metadata written to %s\n" path
          | None -> ());
          (match links_out with
          | Some path ->
              Aladin_store.Atomic_file.write path
                (Aladin_access.Link_export.to_csv (Warehouse.links w));
              Printf.printf "links written to %s\n" path
          | None -> ());
          (match save_store with
          | Some dir -> (
              match Warehouse.save_dir w dir with
              | Ok () -> Printf.printf "warehouse saved to %s\n" dir
              | Error msg -> die "aladin: save: %s" msg)
          | None -> ());
          if strict && not (List.for_all Run_report.is_clean reports) then
            degraded "aladin: integration degraded (--strict)")
    with
    | v -> v
    | exception Aladin_store.Fault.Killed ->
        prerr_endline "aladin: killed by injected fault";
        exit exit_killed
  in
  Cmd.v
    (Cmd.info "integrate" ~doc:"Integrate data sources hands-off (all five steps).")
    Term.(const run $ loose_paths $ journal_arg $ resume_arg $ save
          $ links_out_arg $ save_store_arg $ config_arg $ strict_arg
          $ trace_file_arg $ kill_step_arg)

(* --- discover --- *)

let discover_cmd =
  let run path =
    let cat = import_or_die path in
    let sp = Aladin_discovery.Source_profile.analyze cat in
    Format.printf "%a@." Aladin_discovery.Source_profile.pp sp
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "discover"
       ~doc:"Import one source and print its discovered structure (steps 1-3).")
    Term.(const run $ path)

(* --- browse --- *)

let browse_cmd =
  let accession =
    Arg.(required & opt (some string) None & info [ "a"; "accession" ] ~docv:"ACC"
           ~doc:"Accession number of the object to display.")
  in
  let run paths accession source =
    let eng = build_engine paths in
    match Engine.browse eng ?source accession with
    | Some v -> print_string (Aladin_access.Browser.render v)
    | None -> die "object %s not found" accession
  in
  Cmd.v
    (Cmd.info "browse" ~doc:"Integrate sources and render one object's page.")
    Term.(const run $ paths_arg $ accession $ source_arg)

(* --- search --- *)

let search_cmd =
  let query =
    Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY")
  in
  let field =
    Arg.(value & opt (some string) None & info [ "f"; "field" ] ~docv:"REL.ATTR"
           ~doc:"Restrict to one indexed field (vertical partition).")
  in
  let run paths query source field =
    let eng = build_engine paths in
    let hits =
      match (source, field) with
      | None, None -> Engine.search eng query
      | _ -> Engine.focused eng ?source ?field query
    in
    if hits = [] then print_endline "(no hits)"
    else
      List.iter
        (fun (h : Aladin_access.Search.hit) ->
          Printf.printf "%-28s %.3f  [%s]\n"
            (Aladin_links.Objref.to_string h.obj)
            h.score
            (String.concat ", " h.matched))
        hits
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Ranked full-text search over the warehouse.")
    Term.(const run $ paths_arg $ query $ source_arg $ field)

(* --- query --- *)

let query_cmd =
  let sql =
    Arg.(required & opt (some string) None & info [ "s"; "sql" ] ~docv:"SQL"
           ~doc:"Query; address tables as source.relation.")
  in
  let run paths sql =
    let eng = build_engine paths in
    match Engine.query eng sql with
    | Ok result -> print_endline (Aladin_access.Sql_eval.render_result result)
    | Error msg -> die "aladin: %s" msg
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a SQL query against the integrated warehouse.")
    Term.(const run $ paths_arg $ sql)

(* --- links --- *)

let links_cmd =
  let kind =
    Arg.(value & opt (some string) None & info [ "k"; "kind" ] ~docv:"KIND"
           ~doc:"Only links of this kind (xref, seq, text, shared-term, mention, duplicate).")
  in
  let format =
    Arg.(value & opt (some (enum [ ("csv", `Csv); ("dot", `Dot) ])) None
           & info [ "format" ] ~docv:"FMT"
               ~doc:"Output as $(docv): csv or dot (GraphViz). Default: text.")
  in
  let run paths kind format =
    let eng = build_engine paths in
    let links = Engine.links ?kind eng in
    match format with
    | Some `Csv -> print_string (Aladin_access.Link_export.to_csv links)
    | Some `Dot -> print_string (Aladin_access.Link_export.to_dot links)
    | None ->
        List.iter (fun l -> Format.printf "%a@." Aladin_links.Link.pp l) links
  in
  Cmd.v
    (Cmd.info "links" ~doc:"List discovered object links (text, CSV or DOT).")
    Term.(const run $ paths_arg $ kind $ format)

(* --- trace --- *)

let trace_cmd =
  let json =
    Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"FILE"
           ~doc:"Also write the trace to $(docv) as JSON.")
  in
  let run paths config json =
    let tr = Aladin_obs.Trace.create ~name:"aladin" () in
    let (_ : Warehouse.t) = build_warehouse ?config ~trace:tr paths in
    print_string (Aladin_obs.Sink.pretty tr);
    match json with
    | Some path ->
        Aladin_obs.Sink.write_json tr path;
        Printf.printf "trace written to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Integrate sources and report the pipeline execution trace:               per-step spans, counters and latency histograms.")
    Term.(const run $ paths_arg $ config_arg $ json)

(* --- profile --- *)

let profile_cmd =
  let run path =
    let cat = import_or_die path in
    let sp = Aladin_discovery.Source_profile.analyze cat in
    print_string (Aladin_discovery.Profile_report.render sp)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Data-profiling report of one source: per-attribute statistics              and content classes.")
    Term.(const run $ path)

(* --- dups --- *)

let dups_cmd =
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Show the field-level evidence for each flagged pair.")
  in
  let run paths explain =
    let w = build_warehouse paths in
    let d = Warehouse.duplicates w in
    Printf.printf "%d duplicate pairs in %d clusters\n" (List.length d.links)
      (List.length d.clusters);
    List.iter
      (fun cluster -> Printf.printf "  { %s }\n" (String.concat ", " cluster))
      d.clusters;
    if explain then
      List.iter
        (fun (_, text) ->
          print_newline ();
          print_string text)
        (Warehouse.explain_duplicates w)
  in
  Cmd.v
    (Cmd.info "dups" ~doc:"List flagged duplicate objects (never merged).")
    Term.(const run $ paths_arg $ explain)

(* --- export --- *)

let export_cmd =
  let dir =
    Arg.(required & opt (some string) None & info [ "d"; "dir" ] ~docv:"DIR"
           ~doc:"Directory to write the static site into.")
  in
  let run paths dir =
    let eng = build_engine paths in
    let n = Aladin_access.Html_export.write_site (Engine.browser eng) ~dir in
    Printf.printf "wrote %d object pages + index.html to %s\n" n dir
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Integrate sources and export the object web as a static HTML site.")
    Term.(const run $ paths_arg $ dir)

(* --- shell --- *)

let shell_cmd =
  let run paths =
    let eng = build_engine paths in
    print_string (Aladin_system.summary (Engine.warehouse eng));
    print_endline "type 'help' for commands";
    Shell.repl (Shell.create eng) stdin stdout
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Integrate sources and browse them in an interactive shell.")
    Term.(const run $ paths_arg)

(* --- serve --- *)

let serve_cmd =
  let module Serve = Aladin_serve in
  let paths =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Source files to integrate and serve.")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Serve a saved warehouse store instead of integrating files.")
  in
  let max_queue =
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-queue bound per batch; requests past it get 503 \
                 with Retry-After.")
  in
  let cache_size =
    Arg.(value & opt int Serve.Service.default_config.cache_capacity
           & info [ "cache-size" ] ~docv:"N"
               ~doc:"Response-cache entries (0 disables caching).")
  in
  let request_budget =
    Arg.(value & opt float 5.0 & info [ "request-budget" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline; an expired request gets 503. 0 \
                 disables the deadline.")
  in
  let debug =
    Arg.(value & flag & info [ "debug-endpoints" ]
           ~doc:"Expose /slow (deadline-polling sleeper) for load and drain \
                 testing.")
  in
  let run paths store config port host max_queue cache_size request_budget
      debug =
    let cfg = load_config config in
    let w =
      match (store, paths) with
      | Some dir, [] -> (
          match Warehouse.load_dir ~config:cfg dir with
          | w, report ->
              if not (Load_report.is_clean report) then
                print_string (Load_report.render report);
              w
          | exception Sys_error msg -> die "aladin: %s" msg)
      | Some _, _ :: _ -> die "aladin: serve takes FILE... or --store, not both"
      | None, [] -> die "aladin: serve needs source files or --store DIR"
      | None, paths -> Warehouse.integrate ~config:cfg (List.map import_or_die paths)
    in
    let engine = Engine.create w in
    let pool = Aladin_par.Pool.get ~domains:cfg.Config.domains () in
    let service =
      Serve.Service.create ~pool
        ~config:
          {
            Serve.Service.cache_capacity = cache_size;
            request_budget = (if request_budget > 0.0 then Some request_budget else None);
            debug_endpoints = debug;
          }
        engine
    in
    let server_cfg = { Serve.Server.host; port; max_queue } in
    let stats =
      Serve.Server.run ~config:server_cfg
        ~on_ready:(fun p ->
          Printf.printf "serving %d objects on http://%s:%d (SIGINT drains)\n%!"
            (List.length (Engine.objects engine)) host p)
        service
    in
    Printf.printf
      "drained: %d served, %d inline, %d rejected, %d read errors, %d write \
       errors, %d batches (largest %d)\n"
      stats.Serve.Server.served stats.inline_served stats.rejected
      stats.read_errors stats.write_errors stats.batches stats.max_batch
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Integrate once, then serve browse/search/query over HTTP with a \
             response cache, bounded admission and graceful drain.")
    Term.(const run $ paths $ store $ config_arg $ port_arg $ host_arg
          $ max_queue $ cache_size $ request_budget $ debug)

(* --- fetch --- *)

let fetch_cmd =
  let module Serve = Aladin_serve in
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"Request target, e.g. /search?q=kinase or /healthz.")
  in
  let include_head =
    Arg.(value & flag & info [ "i"; "include" ]
           ~doc:"Print the status line and response headers before the body.")
  in
  let run target port host include_head =
    match Serve.Client.request ~host ~port target with
    | Error msg -> die "aladin: fetch: %s" msg
    | Ok resp ->
        if include_head then begin
          Printf.printf "HTTP/1.1 %d %s\n" resp.Serve.Http.status
            (Serve.Http.reason resp.Serve.Http.status);
          List.iter
            (fun (k, v) -> Printf.printf "%s: %s\n" k v)
            resp.Serve.Http.headers;
          print_newline ()
        end;
        print_string resp.Serve.Http.body;
        if resp.Serve.Http.status >= 400 then exit exit_error
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:"One HTTP GET against a running aladin serve (no curl needed); \
             exits 2 on a non-2xx response.")
    Term.(const run $ target $ port_arg $ host_arg $ include_head)

(* --- add --- *)

let add_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE"
           ~doc:"Warehouse store directory written by 'save' or 'demo --save'; \
                 updated in place.")
  in
  let files =
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILE"
           ~doc:"Source files to add. A source with the same name replaces \
                 the stored one.")
  in
  let links_out_arg =
    Arg.(value & opt (some string) None & info [ "links-out" ] ~docv:"FILE"
           ~doc:"Export the final link set to $(docv) as CSV.")
  in
  let run dir files config strict links_out =
    match Warehouse.load_dir ~config:(load_config config) dir with
    | exception Sys_error msg -> die "aladin: %s" msg
    | w, load_report ->
        if not (Load_report.is_clean load_report) then
          print_string (Load_report.render load_report);
        let reports =
          List.map
            (fun path ->
              let cat = import_or_die path in
              let report = Warehouse.add_source w cat in
              print_string (Run_report.render report);
              (match Warehouse.last_delta w with
              | Some (a : Delta.audit) ->
                  let pair (x, y) = x ^ "<->" ^ y in
                  Printf.printf
                    "delta: %d pair%s recomputed (%s), %d reused\n"
                    (List.length a.recomputed_pairs)
                    (if List.length a.recomputed_pairs = 1 then "" else "s")
                    (String.concat ", " (List.map pair a.recomputed_pairs))
                    (List.length a.reused_pairs)
              | None -> ());
              report)
            files
        in
        (match Warehouse.save_dir w dir with
        | Ok () -> Printf.printf "warehouse saved to %s\n" dir
        | Error msg -> die "aladin: save: %s" msg);
        (match links_out with
        | Some path ->
            Aladin_store.Atomic_file.write path
              (Aladin_access.Link_export.to_csv (Warehouse.links w));
            Printf.printf "links written to %s\n" path
        | None -> ());
        if
          strict
          && not
               (Load_report.is_clean load_report
               && List.for_all Run_report.is_clean reports)
        then degraded "aladin: add degraded (--strict)"
  in
  Cmd.v
    (Cmd.info "add"
       ~doc:"Add sources to a saved warehouse store incrementally: only the \
             source pairs touching each new source are recomputed (the \
             printed delta says which); everything else is reused. The \
             merged result is byte-identical to re-integrating from \
             scratch.")
    Term.(const run $ dir $ files $ config_arg $ strict_arg $ links_out_arg)

(* --- load --- *)

let load_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Warehouse store directory written by 'save' (or demo --save).")
  in
  let reanalyze =
    Arg.(value & flag & info [ "reanalyze" ]
           ~doc:"Re-run the five pipeline steps on the restored data instead \
                 of trusting the saved links and reports.")
  in
  let run dir config strict reanalyze =
    match Warehouse.load_dir ~config:(load_config config) ~reanalyze dir with
    | w, report ->
        print_string (Aladin_system.summary w);
        print_string (Load_report.render report);
        if strict && not (Load_report.is_clean report) then
          degraded "aladin: load degraded (--strict)"
    | exception Sys_error msg -> die "aladin: %s" msg
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Restore a saved warehouse store, salvaging around any damage;          prints the load report.")
    Term.(const run $ dir $ config_arg $ strict_arg $ reanalyze)

(* --- fsck --- *)

let fsck_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Warehouse or dump store directory to verify.")
  in
  let repair =
    Arg.(value & flag & info [ "repair" ]
           ~doc:"Salvage damaged members record-by-record, quarantine the \
                 unrecoverable, and commit the result as a fresh consistent \
                 snapshot.")
  in
  let run dir repair =
    if repair then
      match Snapshot.repair dir with
      | Ok report ->
          print_string (Load_report.render report);
          if Load_report.is_clean report then
            print_endline "store is clean, nothing to repair"
          else print_endline "store repaired"
      | Error msg -> die "aladin: fsck: %s" msg
    else
      match Snapshot.verify dir with
      | Ok report ->
          print_string (Load_report.render report);
          if not (Load_report.is_clean report) then
            degraded "aladin: fsck: store is damaged (--repair to salvage)"
      | Error msg -> die "aladin: fsck: %s" msg
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify a store offline against its manifest checksums: exit            nonzero on damage; --repair salvages and recommits.")
    Term.(const run $ dir $ repair)

(* --- demo --- *)

let demo_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Corpus seed.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR"
           ~doc:"Also save the integrated warehouse as a store under $(docv).")
  in
  let run seed save trace_file =
    with_trace_file trace_file (fun trace ->
        let corpus =
          Aladin_datagen.Corpus.generate
            { Aladin_datagen.Corpus.default_params with seed }
        in
        let w = Warehouse.integrate ?trace corpus.catalogs in
        print_string (Aladin_system.summary w);
        match save with
        | None -> ()
        | Some dir -> (
            match Warehouse.save_dir w dir with
            | Ok () -> Printf.printf "warehouse saved to %s\n" dir
            | Error msg -> die "aladin: save: %s" msg))
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Generate a synthetic life-science corpus and integrate it.")
    Term.(const run $ seed $ save $ trace_file_arg)

let () =
  let info =
    Cmd.info "aladin" ~version:"1.0.0"
      ~doc:"(Almost) hands-off information integration for the life sciences"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ integrate_cmd; discover_cmd; browse_cmd; search_cmd; query_cmd;
            links_cmd; trace_cmd; profile_cmd; dups_cmd; export_cmd;
            shell_cmd; serve_cmd; fetch_cmd; demo_cmd; add_cmd; load_cmd;
            fsck_cmd ]))
