open Aladin_obs

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then
    Alcotest.fail (Printf.sprintf "%s: %S not found in %s" what needle hay)

let clock_tests =
  [
    Alcotest.test_case "now is non-decreasing" `Quick (fun () ->
        let a = Clock.now () in
        let b = Clock.now () in
        let c = Clock.now () in
        check Alcotest.bool "a<=b" true (a <= b);
        check Alcotest.bool "b<=c" true (b <= c));
    Alcotest.test_case "timed returns value and >= 0 duration" `Quick (fun () ->
        let v, secs = Clock.timed (fun () -> 41 + 1) in
        check Alcotest.int "value" 42 v;
        check Alcotest.bool "secs >= 0" true (secs >= 0.0));
  ]

let span_tests =
  [
    Alcotest.test_case "nesting builds a tree" `Quick (fun () ->
        let tr = Trace.create ~name:"t" () in
        Trace.with_span tr "outer" (fun () ->
            Trace.with_span tr "inner-1" (fun () -> ());
            Trace.with_span tr "inner-2" (fun () -> ()));
        Trace.with_span tr "second-root" (fun () -> ());
        match Trace.roots tr with
        | [ outer; second ] ->
            check Alcotest.string "outer" "outer" (Span.name outer);
            check Alcotest.string "second" "second-root" (Span.name second);
            check
              Alcotest.(list string)
              "children"
              [ "inner-1"; "inner-2" ]
              (List.map Span.name (Span.children outer));
            check Alcotest.bool "closed" false (Span.is_open outer);
            List.iter
              (fun sp ->
                check Alcotest.bool
                  (Span.name sp ^ " duration >= 0")
                  true
                  (Span.duration sp >= 0.0))
              (outer :: second :: Span.children outer)
        | roots ->
            Alcotest.fail (Printf.sprintf "%d roots" (List.length roots)));
    Alcotest.test_case "raising body still closes its span" `Quick (fun () ->
        let tr = Trace.create () in
        (try
           Trace.with_span tr "boom" (fun () -> failwith "no")
         with Failure _ -> ());
        match Trace.roots tr with
        | [ sp ] ->
            check Alcotest.string "name" "boom" (Span.name sp);
            check Alcotest.bool "closed" false (Span.is_open sp)
        | roots ->
            Alcotest.fail (Printf.sprintf "%d roots" (List.length roots)));
    Alcotest.test_case "attrs recorded on the innermost open span" `Quick
      (fun () ->
        let tr = Trace.create () in
        Trace.with_span tr "outer" (fun () ->
            Trace.with_span tr "inner" (fun () -> Trace.add_attr tr "k" "v"));
        match Trace.roots tr with
        | [ outer ] ->
            let inner = List.hd (Span.children outer) in
            check
              Alcotest.(list (pair string string))
              "attrs"
              [ ("k", "v") ]
              (Span.attrs inner)
        | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "trace duration spans the roots" `Quick (fun () ->
        let tr = Trace.create () in
        check (Alcotest.float 0.0) "empty" 0.0 (Trace.duration tr);
        Trace.with_span tr "a" (fun () -> ());
        check Alcotest.bool ">= 0" true (Trace.duration tr >= 0.0));
  ]

let metric_tests =
  [
    Alcotest.test_case "counters accumulate" `Quick (fun () ->
        let tr = Trace.create () in
        Trace.incr tr "hits";
        Trace.incr tr ~by:4 "hits";
        Trace.incr tr "misses";
        check Alcotest.int "hits" 5 (Trace.counter_value tr "hits");
        check Alcotest.int "unknown" 0 (Trace.counter_value tr "nope");
        check
          Alcotest.(list (pair string int))
          "sorted"
          [ ("hits", 5); ("misses", 1) ]
          (Trace.counters tr));
    Alcotest.test_case "histogram accumulates" `Quick (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.observe h) [ 0.002; 0.004; 0.5; 1000.0 ];
        check Alcotest.int "count" 4 (Histogram.count h);
        check (Alcotest.float 1e-9) "sum" 1000.506 (Histogram.sum h);
        check (Alcotest.float 1e-9) "min" 0.002 (Histogram.min_value h);
        check (Alcotest.float 1e-9) "max" 1000.0 (Histogram.max_value h);
        let buckets = Histogram.buckets h in
        check Alcotest.int "bucket counts sum to count" 4
          (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
        (* 1000s exceeds the last bound: it must land in the overflow slot *)
        let bound, overflow = List.nth buckets (List.length buckets - 1) in
        check Alcotest.bool "last bound is infinity" true (bound = infinity);
        check Alcotest.int "overflow" 1 overflow);
    Alcotest.test_case "observe through the trace" `Quick (fun () ->
        let tr = Trace.create () in
        Trace.with_ambient tr (fun () ->
            Trace.ambient_observe "lat" 0.25;
            Trace.ambient_observe "lat" 0.75);
        match Trace.histograms tr with
        | [ ("lat", h) ] ->
            check Alcotest.int "count" 2 (Histogram.count h);
            check (Alcotest.float 1e-9) "mean" 0.5 (Histogram.mean h)
        | hs -> Alcotest.fail (Printf.sprintf "%d histograms" (List.length hs)));
    Alcotest.test_case "ambient is a no-op without a trace" `Quick (fun () ->
        check Alcotest.bool "none" true (Trace.ambient () = None);
        Trace.ambient_incr "x";
        Trace.ambient_observe "y" 1.0;
        let v = Trace.ambient_span "z" (fun () -> 7) in
        check Alcotest.int "body ran" 7 v);
    Alcotest.test_case "ambient records into the installed trace" `Quick
      (fun () ->
        let tr = Trace.create () in
        Trace.with_ambient tr (fun () ->
            Trace.ambient_span "work" (fun () -> Trace.ambient_incr "n"));
        check Alcotest.bool "uninstalled" true (Trace.ambient () = None);
        check Alcotest.int "n" 1 (Trace.counter_value tr "n");
        check
          Alcotest.(list string)
          "span"
          [ "work" ]
          (List.map Span.name (Trace.roots tr)));
  ]

let json_tests =
  [
    Alcotest.test_case "export shape" `Quick (fun () ->
        let tr = Trace.create ~name:"demo" () in
        Trace.with_span tr "step" (fun () ->
            Trace.add_attr tr "source" "s1";
            Trace.with_span tr "child" (fun () -> ());
            Trace.incr tr "pairs";
            Trace.with_ambient tr (fun () -> Trace.ambient_observe "lat" 0.01));
        let j = Sink.to_json tr in
        List.iter
          (fun needle -> check_contains "json" needle j)
          [ "\"trace\":\"demo\""; "\"spans\""; "\"name\":\"step\"";
            "\"name\":\"child\""; "\"attrs\""; "\"source\":\"s1\"";
            "\"counters\""; "\"pairs\":1"; "\"histograms\""; "\"lat\"";
            "\"count\":1"; "\"buckets\""; "\"le_s\":null";
            "\"duration_s\"" ]);
    Alcotest.test_case "json escapes control characters" `Quick (fun () ->
        let tr = Trace.create ~name:"quote\"and\nnewline" () in
        let j = Sink.to_json tr in
        check_contains "escaped" "quote\\\"and\\nnewline" j);
    Alcotest.test_case "pretty mentions spans and counters" `Quick (fun () ->
        let tr = Trace.create ~name:"demo" () in
        Trace.with_span tr "step" (fun () -> Trace.incr tr ~by:3 "pairs");
        let p = Sink.pretty tr in
        check_contains "pretty" "step" p;
        check_contains "pretty" "pairs" p);
  ]

(* the full pipeline, traced: one root span per step, child spans under
   link discovery, counters from the discovery layers *)
let pipeline_tests =
  let corpus =
    lazy
      (Aladin_datagen.Corpus.generate
         {
           Aladin_datagen.Corpus.default_params with
           universe =
             { Aladin_datagen.Universe.default_params with n_proteins = 12;
               n_genes = 6; n_structures = 4; n_diseases = 3; n_terms = 6;
               n_families = 2 };
         })
  in
  let traced =
    lazy
      (let w = Aladin.Warehouse.create () in
       match (Lazy.force corpus).catalogs with
       | first :: _ ->
           let report = Aladin.Warehouse.add_source w first in
           (w, report)
       | [] -> Alcotest.fail "no catalogs")
  in
  [
    Alcotest.test_case "one root span per pipeline step" `Quick (fun () ->
        let w, _ = Lazy.force traced in
        match Aladin.Warehouse.last_trace w with
        | None -> Alcotest.fail "no trace"
        | Some tr ->
            check
              Alcotest.(list string)
              "steps"
              [ "import"; "primary discovery"; "secondary discovery";
                "link discovery"; "duplicate detection" ]
              (List.map Span.name (Trace.roots tr));
            List.iter
              (fun sp ->
                check Alcotest.bool
                  (Span.name sp ^ " >= 0")
                  true
                  (Span.duration sp >= 0.0))
              (Trace.roots tr));
    Alcotest.test_case "run report mirrors the spans" `Quick (fun () ->
        let _, report = Lazy.force traced in
        check Alcotest.int "five" 5 (List.length report.steps);
        List.iter
          (fun (s : Aladin.Warehouse.Run_report.step_report) ->
            check Alcotest.bool (s.step ^ " >= 0") true (s.seconds >= 0.0);
            check Alcotest.bool (s.step ^ " clean") true
              (Aladin.Warehouse.Run_report.outcome_clean s.outcome))
          report.steps);
    Alcotest.test_case "spans carry a status attribute" `Quick (fun () ->
        let w, _ = Lazy.force traced in
        match Aladin.Warehouse.last_trace w with
        | None -> Alcotest.fail "no trace"
        | Some tr ->
            List.iter
              (fun sp ->
                check
                  Alcotest.(option string)
                  (Span.name sp ^ " status")
                  (Some "ok")
                  (List.assoc_opt "status" (Span.attrs sp)))
              (List.filter
                 (fun sp -> Span.name sp <> "import")
                 (Trace.roots tr)));
    Alcotest.test_case "link discovery has child pass spans" `Quick (fun () ->
        let w, _ = Lazy.force traced in
        match Aladin.Warehouse.last_trace w with
        | None -> Alcotest.fail "no trace"
        | Some tr ->
            let link =
              List.find (fun sp -> Span.name sp = "link discovery")
                (Trace.roots tr)
            in
            let names = List.map Span.name (Span.children link) in
            check Alcotest.bool "has xref pass" true
              (List.mem "xref pass" names);
            check Alcotest.bool "has a second pass" true
              (List.length names >= 2));
    Alcotest.test_case "primary discovery has child spans" `Quick (fun () ->
        let w, _ = Lazy.force traced in
        match Aladin.Warehouse.last_trace w with
        | None -> Alcotest.fail "no trace"
        | Some tr ->
            let primary =
              List.find (fun sp -> Span.name sp = "primary discovery")
                (Trace.roots tr)
            in
            check
              Alcotest.(list string)
              "children"
              [ "profile"; "accession candidates"; "fk inference";
                "primary choice" ]
              (List.map Span.name (Span.children primary)));
    Alcotest.test_case "discovery counters recorded" `Quick (fun () ->
        let w, _ = Lazy.force traced in
        match Aladin.Warehouse.last_trace w with
        | None -> Alcotest.fail "no trace"
        | Some tr ->
            check Alcotest.bool "fk pairs considered" true
              (Trace.counter_value tr "fk.pairs_considered" > 0);
            check Alcotest.bool "pruned <= considered" true
              (Trace.counter_value tr "fk.pairs_pruned"
              <= Trace.counter_value tr "fk.pairs_considered"));
    Alcotest.test_case "trace persisted as provenance" `Quick (fun () ->
        let w, _ = Lazy.force traced in
        match T_core.provenance w with
        | None -> Alcotest.fail "no provenance"
        | Some doc -> (
            check_contains "provenance json" "\"spans\"" doc;
            check_contains "provenance json" "link discovery" doc;
            (* survives a store round trip *)
            let dir = Tmp.path "prov" in
            match Aladin.Warehouse.save_dir w dir with
            | Error msg -> Alcotest.fail ("save_dir: " ^ msg)
            | Ok () ->
                let reloaded, report = Aladin.Warehouse.load_dir dir in
                check Alcotest.bool "clean load" true
                  (Aladin_store.Load_report.is_clean report);
                check
                  Alcotest.(option string)
                  "reloaded" (Some doc)
                  (T_core.provenance reloaded)));
  ]

let tests =
  [
    ("obs.clock", clock_tests);
    ("obs.span", span_tests);
    ("obs.metrics", metric_tests);
    ("obs.json", json_tests);
    ("obs.pipeline", pipeline_tests);
  ]
