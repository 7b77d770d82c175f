(* The resilience subsystem and its integration into the pipeline:
   budgets, error boundaries, typed run reports, quarantine. *)

open Aladin
open Aladin_resilience

let check = Alcotest.check

let small_corpus =
  lazy
    (Aladin_datagen.Corpus.generate
       {
         Aladin_datagen.Corpus.default_params with
         universe =
           { Aladin_datagen.Universe.default_params with n_proteins = 20;
             n_genes = 8; n_structures = 6; n_diseases = 3; n_terms = 6;
             n_families = 3 };
       })

let run_report w source =
  List.find_opt (fun (r : Run_report.t) -> r.source = source) (Warehouse.run_reports w)

let budget_tests =
  [
    Alcotest.test_case "active inside, cleared outside" `Quick (fun () ->
        let active () = Budget.remaining () <> None in
        check Alcotest.bool "outside" false (active ());
        let inside = Budget.with_budget ~step:"s" 60.0 active in
        check Alcotest.bool "inside" true inside;
        check Alcotest.bool "restored" false (active ()));
    Alcotest.test_case "zero budget expires on entry" `Quick (fun () ->
        match Budget.with_budget ~step:"z" 0.0 (fun () -> ()) with
        | () -> Alcotest.fail "no expiry"
        | exception Budget.Expired (step, b) ->
            check Alcotest.string "step" "z" step;
            check (Alcotest.float 0.0) "budget" 0.0 b);
    Alcotest.test_case "generous budget lets the body run" `Quick (fun () ->
        check Alcotest.int "ran" 41
          (Budget.with_budget ~step:"g" 3600.0 (fun () -> 41)));
    Alcotest.test_case "remaining is positive under a fresh budget" `Quick
      (fun () ->
        Budget.with_budget ~step:"r" 3600.0 (fun () ->
            match Budget.remaining () with
            | Some r -> check Alcotest.bool "positive" true (r > 0.0)
            | None -> Alcotest.fail "no budget"));
    Alcotest.test_case "inner budget shadows, outer restored" `Quick (fun () ->
        Budget.with_budget ~step:"outer" 3600.0 (fun () ->
            (match
               Boundary.protect ~step:"inner" ~budget:0.0 (fun () -> ())
             with
            | Error (Run_report.Timeout _) -> ()
            | Ok () | Error _ -> Alcotest.fail "inner should time out");
            (* the outer hour is back, not the inner zero *)
            check Alcotest.bool "outer back" true
              (match Budget.remaining () with Some r -> r > 60.0 | None -> false)));
  ]

let boundary_tests =
  [
    Alcotest.test_case "ok passes through" `Quick (fun () ->
        match Boundary.protect ~step:"s" (fun () -> 7) with
        | Ok 7 -> ()
        | _ -> Alcotest.fail "not ok");
    Alcotest.test_case "exception becomes Crashed" `Quick (fun () ->
        match Boundary.protect ~step:"s" (fun () -> failwith "boom") with
        | Error (Run_report.Crashed msg) ->
            check Alcotest.bool "message kept" true
              (Aladin_text.Strdist.contains ~needle:"boom" msg)
        | _ -> Alcotest.fail "not crashed");
    Alcotest.test_case "zero budget becomes Timeout" `Quick (fun () ->
        match Boundary.protect ~step:"s" ~budget:0.0 (fun () -> ()) with
        | Error (Run_report.Timeout b) -> check (Alcotest.float 0.0) "b" 0.0 b
        | _ -> Alcotest.fail "not a timeout");
    Alcotest.test_case "status names" `Quick (fun () ->
        (* the status a bounded step stamps on its span *)
        let status ?budget f =
          let tr = Aladin_obs.Trace.create () in
          ignore
            (Aladin_obs.Trace.with_ambient tr (fun () ->
                 Boundary.bounded ~name:"s" ?budget f));
          match Aladin_obs.Trace.roots tr with
          | [ sp ] -> List.assoc_opt "status" (Aladin_obs.Span.attrs sp)
          | _ -> None
        in
        check Alcotest.(option string) "ok" (Some "ok") (status (fun () -> ()));
        check Alcotest.(option string) "timeout" (Some "timeout")
          (status ~budget:0.0 (fun () -> ()));
        check Alcotest.(option string) "failed" (Some "failed")
          (status (fun () -> failwith "x")));
  ]

let sample_report =
  {
    Run_report.source = "src\twith\nodd chars";
    quarantined = false;
    steps =
      [
        Run_report.step "import"
          (Run_report.Degraded
             [ { code = "record_error"; detail = "record 3: bad\tfield" } ]);
        Run_report.step ~seconds:1.25 "primary discovery" Run_report.Ok;
        Run_report.step "secondary discovery"
          (Run_report.Skipped (Run_report.Budget_exhausted 0.5));
        Run_report.step ~seconds:0.5
          ~children:
            [
              Run_report.step "xref pass" Run_report.Ok;
              Run_report.step "seq pass"
                (Run_report.Skipped Run_report.Budget_zero);
              Run_report.step "text pass"
                (Run_report.Skipped Run_report.Disabled);
              Run_report.step "onto pass"
                (Run_report.Failed (Run_report.Crashed "onto: bad term"));
            ]
          "link discovery"
          (Run_report.Degraded [ { code = "seq pass"; detail = "budget" } ]);
        Run_report.step "duplicate detection"
          (Run_report.Failed (Run_report.Timeout 2.0));
      ];
  }

let report_tests =
  [
    Alcotest.test_case "serialize roundtrip" `Quick (fun () ->
        match Run_report.deserialize (Run_report.serialize sample_report) with
        | Some r -> check Alcotest.bool "equal" true (r = sample_report)
        | None -> Alcotest.fail "did not deserialize");
    Alcotest.test_case "quarantined roundtrip" `Quick (fun () ->
        let q = { sample_report with Run_report.quarantined = true } in
        match Run_report.deserialize (Run_report.serialize q) with
        | Some r -> check Alcotest.bool "flag kept" true r.quarantined
        | None -> Alcotest.fail "did not deserialize");
    Alcotest.test_case "deserialize rejects garbage" `Quick (fun () ->
        check Alcotest.bool "none" true (Run_report.deserialize "junk" = None));
    Alcotest.test_case "clean predicate" `Quick (fun () ->
        check Alcotest.bool "sample not clean" false
          (Run_report.is_clean sample_report);
        let clean =
          {
            Run_report.source = "s";
            quarantined = false;
            steps =
              [ Run_report.step "a" Run_report.Ok;
                Run_report.step "b" (Run_report.Skipped Run_report.Disabled) ];
          }
        in
        check Alcotest.bool "ok+disabled clean" true (Run_report.is_clean clean));
    Alcotest.test_case "find descends into children" `Quick (fun () ->
        match Run_report.find sample_report "seq pass" with
        | Some s ->
            check Alcotest.bool "skipped" true
              (s.outcome = Run_report.Skipped Run_report.Budget_zero)
        | None -> Alcotest.fail "not found");
    Alcotest.test_case "render mentions every outcome" `Quick (fun () ->
        let doc = Run_report.render sample_report in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true
              (Aladin_text.Strdist.contains ~needle doc))
          [ "degraded"; "skipped"; "failed"; "record_error" ]);
    Alcotest.test_case "repository persists reports" `Quick (fun () ->
        let module Repository = Aladin_metadata.Repository in
        let read =
          Repository.read
            (Repository.render ~profiles:[] ~reports:[ sample_report ]
               ~provenance:None)
        in
        check Alcotest.int "nothing dropped" 0 read.dropped;
        match read.reports with
        | [ r ] -> check Alcotest.bool "roundtrip" true (r = sample_report)
        | rs -> Alcotest.fail (Printf.sprintf "%d reports" (List.length rs)));
    Alcotest.test_case "latest report per source wins" `Quick (fun () ->
        let w = Warehouse.create () in
        let fail detail =
          Warehouse.report_import_failure w ~source:"s"
            (Import_error.make ~source:"s" ~kind:Import_error.Io detail)
        in
        ignore (fail "first");
        let latest = fail "second" in
        check Alcotest.bool "only the latest" true
          (Warehouse.run_reports w = [ latest ]));
  ]

(* acceptance: a corrupted source in a multi-source integrate is
   quarantined while every other source integrates fully *)
let quarantine_tests =
  [
    Alcotest.test_case "unimportable source quarantined, rest integrate" `Quick
      (fun () ->
        let c = Lazy.force small_corpus in
        let w = Warehouse.create () in
        (match
           Aladin_formats.Import.import_string ~name:"garbage"
             "\000\001 not a biological format"
         with
        | Error err ->
            ignore (Warehouse.report_import_failure w ~source:"garbage" err)
        | Ok _ -> Alcotest.fail "garbage imported");
        List.iter (fun cat -> ignore (Warehouse.add_source w cat)) c.catalogs;
        (* the bad source is reported but not in the warehouse *)
        check Alcotest.bool "not a source" false
          (List.mem "garbage" (Warehouse.sources w));
        (match run_report w "garbage" with
        | Some r ->
            check Alcotest.bool "quarantined" true r.quarantined;
            check Alcotest.bool "import failed" true
              (match (List.hd r.steps).outcome with
              | Run_report.Failed _ -> true
              | _ -> false)
        | None -> Alcotest.fail "no report for garbage");
        (* everything else is fully integrated and clean *)
        check Alcotest.int "all sources in" (List.length c.catalogs)
          (List.length (Warehouse.sources w));
        check Alcotest.bool "links found" true (Warehouse.links w <> []);
        List.iter
          (fun cat ->
            let name = Aladin_relational.Catalog.name cat in
            match run_report w name with
            | Some r ->
                check Alcotest.bool (name ^ " clean") true
                  (Run_report.is_clean r)
            | None -> Alcotest.fail ("no report for " ^ name))
          c.catalogs);
    Alcotest.test_case "failed required step rolls the source back" `Quick
      (fun () ->
        let c = Lazy.force small_corpus in
        let config =
          { Config.default with
            budgets = { Config.no_budgets with primary = Some 0.0 } }
        in
        let w = Warehouse.create ~config () in
        let report = Warehouse.add_source w (List.hd c.catalogs) in
        check Alcotest.bool "quarantined" true report.quarantined;
        (match Run_report.find report "primary discovery" with
        | Some s ->
            check Alcotest.bool "timed out" true
              (s.outcome = Run_report.Failed (Run_report.Timeout 0.0))
        | None -> Alcotest.fail "no primary step");
        (match Run_report.find report "link discovery" with
        | Some s ->
            check Alcotest.bool "skipped as dependency" true
              (match s.outcome with
              | Run_report.Skipped (Run_report.Dependency_failed _) -> true
              | _ -> false)
        | None -> Alcotest.fail "no link step");
        (* rolled back: the warehouse is untouched *)
        check Alcotest.int "no sources" 0 (List.length (Warehouse.sources w));
        check Alcotest.bool "no profile" true
          (Warehouse.profile w (Aladin_relational.Catalog.name (List.hd c.catalogs))
          = None));
  ]

(* acceptance: a zero budget on one pass skips exactly that pass: none
   of the link kinds it owns is left, every other link is byte-identical,
   and every source's report records the skip *)
let normal_run = lazy (Warehouse.integrate (Lazy.force small_corpus).catalogs)

let budget_zero_case (pass, step, kinds, budgets) =
  Alcotest.test_case (pass ^ " budget 0 skips the pass, rest identical") `Quick
    (fun () ->
      let module L = Aladin_links in
      let c = Lazy.force small_corpus in
      let normal = Lazy.force normal_run in
      let throttled =
        Warehouse.integrate ~config:{ Config.default with budgets } c.catalogs
      in
      let owned (l : L.Link.t) = List.mem l.kind kinds in
      let render links =
        List.map
          (fun (l : L.Link.t) ->
            Printf.sprintf "%s|%s|%s|%s|%s|%h|%s" (L.Objref.to_string l.src)
              l.src.relation (L.Objref.to_string l.dst) l.dst.relation
              (L.Link.kind_name l.kind) l.confidence l.evidence)
          links
      in
      (* the pass found something in the normal run ... *)
      check Alcotest.bool ("normal run has " ^ pass ^ " links") true
        (List.exists owned (Warehouse.links normal));
      (* ... the throttled run has none ... *)
      check Alcotest.int ("throttled run has no " ^ pass ^ " links") 0
        (List.length (List.filter owned (Warehouse.links throttled)));
      (* ... and every other link is byte-identical *)
      check
        Alcotest.(list string)
        "other links identical"
        (render (List.filter (fun l -> not (owned l)) (Warehouse.links normal)))
        (render (Warehouse.links throttled));
      (* the skip is recorded on every source's report *)
      List.iter
        (fun (r : Run_report.t) ->
          match Run_report.find r step with
          | Some s ->
              check Alcotest.bool (r.source ^ " " ^ step ^ " skipped") true
                (s.outcome = Run_report.Skipped Run_report.Budget_zero)
          | None -> Alcotest.fail ("no " ^ step ^ " in " ^ r.source))
        (Warehouse.run_reports throttled))

let budget_zero_tests =
  let module L = Aladin_links.Link in
  let zero = Some 0.0 and none = Config.no_budgets in
  List.map budget_zero_case
    [ ("seq", "seq pass", [ L.Seq_similarity ], { none with seq_pass = zero });
      ("text", "text pass", [ L.Text_similarity; L.Entity_mention ],
       { none with text_pass = zero });
      ("onto", "onto pass", [ L.Shared_term ], { none with onto_pass = zero });
      ("dups", "duplicate detection", [ L.Duplicate ], { none with dups = zero }) ]
  @ [
    Alcotest.test_case "disabled pass is clean, budget-zero degrades" `Quick
      (fun () ->
        let c = Lazy.force small_corpus in
        let disabled =
          Warehouse.integrate
            ~config:
              { Config.default with
                linker = { Config.default.linker with enable_seq = false } }
            c.catalogs
        in
        List.iter
          (fun (r : Run_report.t) ->
            check Alcotest.bool (r.source ^ " clean") true
              (Run_report.is_clean r))
          (Warehouse.run_reports disabled));
  ]

let import_error_tests =
  [
    Alcotest.test_case "to_string carries source and kind" `Quick (fun () ->
        let e =
          Import_error.make ~source:"src" ~kind:Import_error.Parse "went wrong"
        in
        let s = Import_error.to_string e in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true
              (Aladin_text.Strdist.contains ~needle s))
          [ "src"; "parse"; "went wrong" ]);
    Alcotest.test_case "record error rendering" `Quick (fun () ->
        let r = { Import_error.index = 4; reason = "short row" } in
        check Alcotest.bool "index" true
          (Aladin_text.Strdist.contains ~needle:"4"
             (Import_error.record_error_to_string r)));
  ]

(* --- satellite: Budget.remaining never goes negative --- *)

let budget_clamp_tests =
  [
    Alcotest.test_case "remaining is positive inside a live budget" `Quick
      (fun () ->
        let r =
          Budget.with_budget ~step:"live" 60.0 (fun () -> Budget.remaining ())
        in
        match r with
        | Some s -> check Alcotest.bool "0 < s <= 60" true (s > 0.0 && s <= 60.0)
        | None -> Alcotest.fail "no active budget");
    Alcotest.test_case "remaining is clamped at zero after expiry" `Quick
      (fun () ->
        let seen = ref None in
        (try
           Budget.with_budget ~step:"clamp" 0.0005 (fun () ->
               let t0 = Aladin_obs.Clock.now () in
               while Aladin_obs.Clock.now () -. t0 < 0.002 do
                 ()
               done;
               seen := Budget.remaining ())
         with Budget.Expired _ -> ());
        match !seen with
        | Some s ->
            check (Alcotest.float 0.0) "exactly zero, never negative" 0.0 s
        | None -> Alcotest.fail "no active budget");
  ]

(* --- satellite: fatal exceptions pass through the boundary --- *)

let boundary_fatal_tests =
  [
    Alcotest.test_case "Fault.Killed escapes the boundary" `Quick (fun () ->
        Alcotest.check_raises "killed" Aladin_store.Fault.Killed (fun () ->
            ignore
              (Boundary.protect ~step:"s" (fun () ->
                   raise Aladin_store.Fault.Killed))));
    Alcotest.test_case "Stack_overflow escapes the boundary" `Quick (fun () ->
        Alcotest.check_raises "overflow" Stack_overflow (fun () ->
            ignore (Boundary.protect ~step:"s" (fun () -> raise Stack_overflow))));
    Alcotest.test_case "Out_of_memory escapes the boundary" `Quick (fun () ->
        Alcotest.check_raises "oom" Out_of_memory (fun () ->
            ignore (Boundary.protect ~step:"s" (fun () -> raise Out_of_memory))));
    Alcotest.test_case "an ordinary exception is still captured" `Quick
      (fun () ->
        match Boundary.protect ~step:"s" (fun () -> failwith "boom") with
        | Error (Run_report.Crashed _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Crashed");
  ]

(* --- bounded retries with deterministic backoff --- *)

let transient_exn = Unix.Unix_error (Unix.EINTR, "read", "")

let retry_tests =
  [
    Alcotest.test_case "backoff is deterministic and bounded" `Quick (fun () ->
        let d1 = Retry.backoff_delay ~step:"seq pass" ~attempt:2 in
        let d2 = Retry.backoff_delay ~step:"seq pass" ~attempt:2 in
        check (Alcotest.float 0.0) "replayed identically" d1 d2;
        for a = 0 to 6 do
          let d = Retry.backoff_delay ~step:"x" ~attempt:a in
          (* a 0.25 s cap, jittered by up to 25% *)
          check Alcotest.bool "within jittered cap" true
            (d >= 0.0 && d <= 0.25 *. 1.25)
        done);
    Alcotest.test_case "transient failures are retried" `Quick (fun () ->
        let calls = ref 0 in
        let v =
          Retry.run ~step:"t" (fun () ->
              incr calls;
              if !calls < 3 then raise transient_exn else "ok")
        in
        check Alcotest.string "succeeded" "ok" v;
        check Alcotest.int "third attempt won" 3 !calls);
    Alcotest.test_case "permanent failures are not retried" `Quick (fun () ->
        let calls = ref 0 in
        (try
           Retry.run ~step:"p" (fun () ->
               incr calls;
               failwith "deterministic")
         with Failure _ -> ());
        check Alcotest.int "single attempt" 1 !calls);
    Alcotest.test_case "attempts are bounded" `Quick (fun () ->
        let calls = ref 0 in
        (try
           Retry.run ~step:"b" (fun () ->
               incr calls;
               raise transient_exn)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        check Alcotest.int "3 attempts in all" 3 !calls);
    Alcotest.test_case "kills are never retried" `Quick (fun () ->
        let calls = ref 0 in
        (try
           Retry.run ~step:"k" (fun () ->
               incr calls;
               raise Aladin_store.Fault.Killed)
         with Aladin_store.Fault.Killed -> ());
        check Alcotest.int "single attempt" 1 !calls);
  ]

(* --- kill-anywhere resumable integration (ISSUE 9 acceptance) --- *)

module Fault = Aladin_store.Fault

(* a catalog of one CSV member per (relation, document) *)
let dump_load ~name members =
  fst
    (Aladin_formats.Dump.catalog_of_members ~name
       (List.map (fun (rel, doc) -> (rel ^ ".csv", doc)) members))

let kr_catalogs () =
  [
    dump_load ~name:"uniprot"
      [ ( "entry",
          "acc,name,description\nP10001,alpha,first protein of the set\n\
           P10002,beta,second protein of the set\n\
           P10003,gamma,third protein of the set\n" ) ];
    dump_load ~name:"pdb"
      [ ("item", "id,acc,score\n1,P10001,0.5\n2,P10003,1.5\n") ];
  ]

let links_csv w = Aladin_access.Link_export.to_csv (Warehouse.links w)

(* everything resume promises to reproduce: source order, links,
   correspondences and run-report outcomes (not timings, and not the
   [resumed] flag) *)
let fingerprint w =
  let corr (c : Aladin_links.Xref_disc.correspondence) =
    Printf.sprintf "%s.%s.%s>%s.%s.%s:%d:%h:%b" c.src_source c.src_relation
      c.src_attribute c.dst_source c.dst_relation c.dst_attribute c.matches
      c.match_frac c.encoded
  in
  let rec step (s : Run_report.step_report) =
    Printf.sprintf "%s=%s[%s]" s.step
      (Run_report.outcome_name s.outcome)
      (String.concat ";" (List.map step s.children))
  in
  let report (r : Run_report.t) =
    Printf.sprintf "%s%s: %s" r.source
      (if r.quarantined then " (quarantined)" else "")
      (String.concat " " (List.map step r.steps))
  in
  String.concat "\n"
    ((String.concat "," (Warehouse.sources w) :: links_csv w
     :: List.map corr (Warehouse.correspondences w))
    @ List.map report (Warehouse.run_reports w))

let journaled_exn ~journal catalogs =
  match Warehouse.integrate_journaled ~journal catalogs with
  | Ok (w, info) -> (w, info)
  | Error e -> Alcotest.fail ("integrate_journaled: " ^ e)

(* a journaled run of [kr_catalogs] killed at step boundary [index] *)
let killed_at_step ~journal index =
  Fault.reset_counters ();
  Fault.arm_step ~index;
  match Warehouse.integrate_journaled ~journal (kr_catalogs ()) with
  | Ok _ | Error _ ->
      Fault.disarm ();
      Alcotest.fail (Printf.sprintf "step %d: expected a kill" index)
  | exception Fault.Killed -> Fault.disarm ()

let read_file path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  doc

let write_file path doc =
  let oc = open_out_bin path in
  output_string oc doc;
  close_out oc

(* the journal is written once: its header line and nothing else *)
let check_journal_one_line what dir =
  let doc = read_file (Filename.concat dir "JOURNAL") in
  check Alcotest.int (what ^ ": JOURNAL is one line") 1
    (List.length (String.split_on_char '\n' doc) - 1)

let store_sources dir =
  match Aladin_store.Snapshot.load (Filename.concat dir "store") with
  | Ok (members, _) -> (
      match Aladin_store.Snapshot.find members "sources.txt" with
      | Some doc -> List.filter (( <> ) "") (String.split_on_char '\n' doc)
      | None -> [])
  | Error _ -> []

let committed_sources dir =
  match Warehouse.journal_status dir with
  | Ok entries ->
      List.filter_map
        (fun (e : Warehouse.journal_source) ->
          if e.js_committed then Some e.js_name else None)
        entries
  | Error e -> Alcotest.fail e

let resume_tests =
  [
    Alcotest.test_case "journaled run matches plain integrate" `Quick
      (fun () ->
        let expect = links_csv (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jeq" in
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check Alcotest.string "links identical" expect (links_csv w);
        check
          Alcotest.(list string)
          "all executed" [ "uniprot"; "pdb" ] info.executed_sources;
        check_journal_one_line "after the run" dir;
        Tmp.rm_rf dir);
    Alcotest.test_case "kill at every step boundary, resume byte-identical"
      `Slow (fun () ->
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        (* count the boundaries on a clean run *)
        let probe = Tmp.path "jprobe" in
        Fault.reset_counters ();
        ignore (journaled_exn ~journal:probe (kr_catalogs ()));
        let _, _, steps_total = Fault.counters () in
        Tmp.rm_rf probe;
        check Alcotest.bool "several boundaries" true (steps_total >= 6);
        for k = 0 to steps_total - 1 do
          let dir = Tmp.path "jkill" in
          Fault.reset_counters ();
          Fault.arm_step ~index:k;
          (match Warehouse.integrate_journaled ~journal:dir (kr_catalogs ())
           with
          | Ok _ | Error _ ->
              Fault.disarm ();
              Alcotest.fail (Printf.sprintf "step %d: expected a kill" k)
          | exception Fault.Killed -> Fault.disarm ());
          let w, (info : Warehouse.resume_info) =
            journaled_exn ~journal:dir (kr_catalogs ())
          in
          check Alcotest.string
            (Printf.sprintf "state identical after kill at %d" k)
            expect (fingerprint w);
          List.iter
            (fun s ->
              check Alcotest.bool
                (Printf.sprintf "%s covered after kill at %d" s k)
                true
                (List.mem s (info.resumed_sources @ info.executed_sources)))
            [ "uniprot"; "pdb" ];
          check_journal_one_line (Printf.sprintf "resume after kill at %d" k) dir;
          Tmp.rm_rf dir
        done);
    Alcotest.test_case "op kills across the last step, resume byte-identical"
      `Slow (fun () ->
        (* every store operation of pdb's journaled step: the store's
           manifest is the only commit record, so journal_status marks
           pdb committed exactly when the store holds it, and resume
           restores exactly those sources. The manifest rename is the
           step's last operation, so no op kill leaves pdb committed;
           the next case kills after the rename. *)
        let catalogs = kr_catalogs () in
        let expect = fingerprint (Warehouse.integrate catalogs) in
        let ops_of cats =
          let probe = Tmp.path "jops" in
          Fault.reset_counters ();
          ignore (journaled_exn ~journal:probe cats);
          let _, ops, _ = Fault.counters () in
          Tmp.rm_rf probe;
          ops
        in
        let first = ops_of [ List.hd catalogs ] and total = ops_of catalogs in
        check Alcotest.bool "pdb's step has store operations" true
          (total > first);
        for k = first to total - 1 do
          let dir = Tmp.path "jopk" in
          Fault.reset_counters ();
          Fault.arm_ops ~ops:k;
          (match Warehouse.integrate_journaled ~journal:dir (kr_catalogs ())
           with
          | Ok _ | Error _ ->
              Fault.disarm ();
              Alcotest.fail (Printf.sprintf "op %d: expected a kill" k)
          | exception Fault.Killed -> Fault.disarm ());
          let committed = committed_sources dir in
          check Alcotest.bool
            (Printf.sprintf "pdb committed iff the store holds it, op %d" k)
            (List.mem "pdb" (store_sources dir))
            (List.mem "pdb" committed);
          let w, (info : Warehouse.resume_info) =
            journaled_exn ~journal:dir (kr_catalogs ())
          in
          check Alcotest.(list string)
            (Printf.sprintf "resume restores what journal_status named, op %d" k)
            committed info.resumed_sources;
          check Alcotest.string
            (Printf.sprintf "state identical after op kill %d" k)
            expect (fingerprint w);
          Tmp.rm_rf dir
        done);
    Alcotest.test_case "a kill after the last manifest rename restores the step"
      `Quick (fun () ->
        (* the last boundary ("source:pdb committed") follows pdb's
           manifest rename: the store holds pdb, so resume restores it
           instead of recomputing it *)
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jlate" in
        killed_at_step ~journal:dir 5;
        check Alcotest.(list string) "the store holds both" [ "uniprot"; "pdb" ]
          (store_sources dir);
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check Alcotest.(list string) "both restored" [ "uniprot"; "pdb" ]
          info.resumed_sources;
        check Alcotest.(list string) "nothing executed" [] info.executed_sources;
        check Alcotest.string "same state" expect (fingerprint w);
        check_journal_one_line "after the resume" dir;
        Tmp.rm_rf dir);
    Alcotest.test_case "damaged store re-runs the whole plan" `Quick
      (fun () ->
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jdmg" in
        ignore (journaled_exn ~journal:dir (kr_catalogs ()));
        let store = Filename.concat dir "store" in
        (match Aladin_store.Snapshot.verify store with
        | Ok rep ->
            let member =
              Filename.concat store
                (Printf.sprintf "snap-%08d/metadata.txt" rep.generation)
            in
            let ic = open_in_bin member in
            let doc = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let oc = open_out_bin member in
            output_string oc
              (Aladin_datagen.Corrupt.flip_bit_at doc ~byte:40 ~bit:1);
            close_out oc
        | Error e -> Alcotest.fail e);
        (match Warehouse.journal_status dir with
        | Ok entries ->
            check Alcotest.bool "nothing restorable" true
              (List.for_all
                 (fun (e : Warehouse.journal_source) -> not e.js_committed)
                 entries)
        | Error e -> Alcotest.fail e);
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check Alcotest.(list string) "nothing restored" [] info.resumed_sources;
        check
          Alcotest.(list string)
          "whole plan re-run" [ "uniprot"; "pdb" ] info.executed_sources;
        check Alcotest.string "same state" expect (fingerprint w);
        Tmp.rm_rf dir);
    Alcotest.test_case "kills while re-running over a lost store" `Slow
      (fun () ->
        (* a fully committed journal whose store is then damaged or
           deleted: resume re-runs the whole plan, and a kill at any
           store operation of that re-run must leave a journal that the
           next resume completes to the same state — neither restoring
           the commits the lost store made nor weighing the new
           generations against theirs *)
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let lose how store =
          match how with
          | `Deleted -> Tmp.rm_rf store
          | `Damaged -> (
              match Aladin_store.Snapshot.verify store with
              | Ok rep ->
                  let member =
                    Filename.concat store
                      (Printf.sprintf "snap-%08d/metadata.txt" rep.generation)
                  in
                  let ic = open_in_bin member in
                  let doc = really_input_string ic (in_channel_length ic) in
                  close_in ic;
                  let oc = open_out_bin member in
                  output_string oc
                    (Aladin_datagen.Corrupt.flip_bit_at doc ~byte:40 ~bit:1);
                  close_out oc
              | Error e -> Alcotest.fail e)
        in
        let prepared how =
          let dir = Tmp.path "jlost" in
          ignore (journaled_exn ~journal:dir (kr_catalogs ()));
          lose how (Filename.concat dir "store");
          dir
        in
        List.iter
          (fun how ->
            let probe = prepared how in
            Fault.reset_counters ();
            ignore (journaled_exn ~journal:probe (kr_catalogs ()));
            let _, ops, _ = Fault.counters () in
            Tmp.rm_rf probe;
            for k = 0 to ops - 1 do
              let dir = prepared how in
              Fault.reset_counters ();
              Fault.arm_ops ~ops:k;
              (match
                 Warehouse.integrate_journaled ~journal:dir (kr_catalogs ())
               with
              | Ok _ | Error _ ->
                  Fault.disarm ();
                  Alcotest.fail (Printf.sprintf "op %d: expected a kill" k)
              | exception Fault.Killed -> Fault.disarm ());
              let w, (info : Warehouse.resume_info) =
                journaled_exn ~journal:dir (kr_catalogs ())
              in
              check Alcotest.string
                (Printf.sprintf "state identical after op kill %d" k)
                expect (fingerprint w);
              check
                Alcotest.(list string)
                (Printf.sprintf "every source accounted for after op kill %d" k)
                [ "pdb"; "uniprot" ]
                (List.sort compare
                   (info.resumed_sources @ info.executed_sources));
              Tmp.rm_rf dir
            done)
          [ `Damaged; `Deleted ]);
    Alcotest.test_case "journal_status agrees with resume on a short decode"
      `Quick (fun () ->
        (* every member passes its checksum, but a CSV row has the wrong
           arity: load_dir drops and counts it, so resume restores
           nothing, and journal_status must say the same *)
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jdec" in
        ignore (journaled_exn ~journal:dir (kr_catalogs ()));
        let store = Filename.concat dir "store" in
        (match Aladin_store.Snapshot.load store with
        | Ok (members, _) -> (
            let ragged (m : Aladin_store.Snapshot.member) =
              if m.path = "pdb/item.csv" then
                { m with content = m.content ^ "3,P10002\n" }
              else m
            in
            match Aladin_store.Snapshot.save store (List.map ragged members) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
        | Error e -> Alcotest.fail e);
        (match Aladin_store.Snapshot.verify store with
        | Ok rep ->
            check Alcotest.bool "checksums clean" true
              (Aladin_store.Load_report.is_clean rep)
        | Error e -> Alcotest.fail e);
        (match Warehouse.journal_status dir with
        | Ok entries ->
            check Alcotest.bool "nothing restorable" true
              (List.for_all
                 (fun (e : Warehouse.journal_source) -> not e.js_committed)
                 entries)
        | Error e -> Alcotest.fail e);
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check Alcotest.(list string) "nothing restored" [] info.resumed_sources;
        check Alcotest.string "same state" expect (fingerprint w);
        Tmp.rm_rf dir);
    Alcotest.test_case "a store rolled back to the first step resumes from it"
      `Quick (fun () ->
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jback" and backup = Tmp.path "jbak" in
        let store = Filename.concat dir "store" in
        let rec copy src dst =
          if Sys.is_directory src then begin
            Sys.mkdir dst 0o755;
            Array.iter
              (fun e -> copy (Filename.concat src e) (Filename.concat dst e))
              (Sys.readdir src)
          end
          else write_file dst (read_file src)
        in
        (* uniprot committed, then keep that store aside *)
        killed_at_step ~journal:dir 3;
        copy store backup;
        ignore (journaled_exn ~journal:dir (kr_catalogs ()));
        Tmp.rm_rf store;
        copy backup store;
        check Alcotest.(list string) "journal_status follows the store"
          [ "uniprot" ] (committed_sources dir);
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check Alcotest.(list string) "uniprot restored" [ "uniprot" ]
          info.resumed_sources;
        check Alcotest.(list string) "pdb recomputed" [ "pdb" ]
          info.executed_sources;
        check Alcotest.string "same state" expect (fingerprint w);
        Tmp.rm_rf dir;
        Tmp.rm_rf backup);
    Alcotest.test_case "a failed checkpoint save is an Error, not a commit"
      `Quick (fun () ->
        (* a plan with no store yet (killed at the first boundary), then
           a regular file where the store directory belongs: the first
           step's save_dir fails *)
        let dir = Tmp.path "jsave" in
        killed_at_step ~journal:dir 0;
        write_file (Filename.concat dir "store") "";
        (match Warehouse.integrate_journaled ~journal:dir (kr_catalogs ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "a failed save was not reported");
        check Alcotest.(list string) "nothing restorable" []
          (committed_sources dir);
        check_journal_one_line "after the failed save" dir;
        Tmp.rm_rf dir);
    Alcotest.test_case "restored reports are flagged resumed" `Quick
      (fun () ->
        let dir = Tmp.path "jflag" in
        (* kill at the second source's first boundary: uniprot committed *)
        killed_at_step ~journal:dir 3;
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check
          Alcotest.(list string)
          "uniprot restored" [ "uniprot" ] info.resumed_sources;
        check
          Alcotest.(list string)
          "pdb recomputed" [ "pdb" ] info.executed_sources;
        (match run_report w "uniprot" with
        | Some r ->
            check Alcotest.bool "every step flagged" true
              (List.for_all
                 (fun (s : Run_report.step_report) -> s.resumed)
                 r.steps)
        | None -> Alcotest.fail "no restored report for uniprot");
        (match run_report w "pdb" with
        | Some r ->
            check Alcotest.bool "recomputed steps not flagged" true
              (List.for_all
                 (fun (s : Run_report.step_report) -> not s.resumed)
                 r.steps)
        | None -> Alcotest.fail "no report for pdb");
        Tmp.rm_rf dir);
    Alcotest.test_case "a journal in the append-only format resumes" `Quick
      (fun () ->
        (* the earlier format appended intent, commit and reset records
           after the header, and a kill mid-append left a torn fragment;
           resume reads only the header and restores from the store *)
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jappend" in
        killed_at_step ~journal:dir 3;
        let path = Filename.concat dir "JOURNAL" in
        let line fields =
          Aladin_store.Records.record (Aladin_store.Serial.record fields) ^ "\n"
        in
        let commit seq src gen =
          line
            [ "commit"; string_of_int seq; "source:" ^ src; string_of_int gen;
              "source"; src; "digest"; "00000000" ]
        in
        write_file path
          (read_file path
          ^ line [ "intent"; "0"; "source:uniprot" ]
          ^ commit 0 "uniprot" 1 ^ line [ "reset" ]
          ^ line [ "intent"; "0"; "source:uniprot" ]
          ^ commit 0 "uniprot" 2
          ^ line [ "intent"; "1"; "source:pdb" ]
          ^ "deadbeef\tcommit\t1");
        let w, (info : Warehouse.resume_info) =
          journaled_exn ~journal:dir (kr_catalogs ())
        in
        check Alcotest.(list string) "uniprot restored" [ "uniprot" ]
          info.resumed_sources;
        check Alcotest.(list string) "pdb recomputed" [ "pdb" ]
          info.executed_sources;
        check Alcotest.string "same state" expect (fingerprint w);
        Tmp.rm_rf dir);
    Alcotest.test_case "a fresh journal refuses a directory holding a store"
      `Quick (fun () ->
        (* the store is the commit record: adopting a stale one would
           restore sources the new plan never committed *)
        let dir = Tmp.path "jstale" in
        (match Warehouse.save_dir (Warehouse.integrate (kr_catalogs ()))
                 (Filename.concat dir "store")
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (match Warehouse.integrate_journaled ~journal:dir (kr_catalogs ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "a journal adopted a stale store");
        check Alcotest.bool "no journal written" false
          (Sys.file_exists (Filename.concat dir "JOURNAL"));
        Tmp.rm_rf dir);
    Alcotest.test_case "resume refuses a changed source" `Quick (fun () ->
        let dir = Tmp.path "jdig" in
        killed_at_step ~journal:dir 3;
        let changed =
          [
            List.hd (kr_catalogs ());
            dump_load ~name:"pdb"
              [ ("item", "id,acc,score\n1,P10002,9.9\n") ];
          ]
        in
        (match Warehouse.integrate_journaled ~journal:dir changed with
        | Error e ->
            check Alcotest.bool "names the digest mismatch" true
              (Aladin_text.Strdist.contains ~needle:"digest" e)
        | Ok _ -> Alcotest.fail "expected a digest-mismatch refusal");
        Tmp.rm_rf dir);
    Alcotest.test_case "a resume from the plan's paths loads the store once"
      `Quick (fun () ->
        let expect = fingerprint (Warehouse.integrate (kr_catalogs ())) in
        let dir = Tmp.path "jpaths" in
        let paths = [ ("uniprot", "in/uniprot.csv"); ("pdb", "in/pdb.csv") ] in
        (* killed after uniprot's step committed, with every path in the
           plan *)
        Fault.reset_counters ();
        Fault.arm_step ~index:3;
        (match
           Warehouse.integrate_journaled ~source_paths:paths ~journal:dir
             (kr_catalogs ())
         with
        | Ok _ | Error _ ->
            Fault.disarm ();
            Alcotest.fail "expected a kill"
        | exception Fault.Killed -> Fault.disarm ());
        (* the first import removes the store: a resume that loaded it
           again after choosing what to import would restore nothing *)
        let imported = ref [] in
        let import path =
          if !imported = [] then Tmp.rm_rf (Filename.concat dir "store");
          imported := path :: !imported;
          List.find
            (fun c ->
              List.assoc (Aladin_relational.Catalog.name c) paths = path)
            (kr_catalogs ())
        in
        (match Warehouse.resume_journal ~import dir with
        | Error e -> Alcotest.fail e
        | Ok (w, info) ->
            check Alcotest.(list string) "imports the uncommitted path only"
              [ "in/pdb.csv" ] !imported;
            check Alcotest.(list string) "restores what the one load held"
              [ "uniprot" ] info.resumed_sources;
            check Alcotest.(list string) "runs the rest" [ "pdb" ]
              info.executed_sources;
            check Alcotest.string "same state" expect (fingerprint w));
        Tmp.rm_rf dir);
    Alcotest.test_case "journal_status names uncommitted work" `Quick
      (fun () ->
        let dir = Tmp.path "jstat" in
        killed_at_step ~journal:dir 3;
        (match Warehouse.journal_status dir with
        | Ok entries ->
            check
              Alcotest.(list (pair string bool))
              "committed flags"
              [ ("uniprot", true); ("pdb", false) ]
              (List.map
                 (fun (e : Warehouse.journal_source) ->
                   (e.js_name, e.js_committed))
                 entries)
        | Error e -> Alcotest.fail e);
        Tmp.rm_rf dir);
  ]

let tests =
  [
    ("resilience.budget", budget_tests);
    ("resilience.budget_clamp", budget_clamp_tests);
    ("resilience.boundary", boundary_tests);
    ("resilience.boundary_fatal", boundary_fatal_tests);
    ("resilience.retry", retry_tests);
    ("resilience.report", report_tests);
    ("resilience.quarantine", quarantine_tests);
    ("resilience.budget_zero", budget_zero_tests);
    ("resilience.import_error", import_error_tests);
    ("resilience.resume", resume_tests);
  ]
