(* The domain pool: deterministic fan-out plus the pipeline-level
   guarantee that pool size never changes any discovery result. *)

module Pool = Aladin_par.Pool
module Obs = Aladin_obs
module Dg = Aladin_datagen
module Ds = Aladin_discovery
module Lk = Aladin_links

let check = Alcotest.check

let with_pool n f =
  let p = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let pool_tests =
  [
    Alcotest.test_case "parallel_map equals List.map at sizes 1/2/4" `Quick
      (fun () ->
        let xs = List.init 100 (fun i -> i - 50) in
        let f x = (x * x) + x in
        let expected = List.map f xs in
        List.iter
          (fun n ->
            with_pool n (fun p ->
                check
                  Alcotest.(list int)
                  (Printf.sprintf "size %d" n)
                  expected (Pool.map ~pool:p f xs)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "parallel_filter_map equals List.filter_map" `Quick
      (fun () ->
        let xs = List.init 60 Fun.id in
        let f x = if x mod 3 = 0 then Some (x * 2) else None in
        with_pool 4 (fun p ->
            check
              Alcotest.(list int)
              "filtered" (List.filter_map f xs)
              (Pool.filter_map ~pool:p f xs)));
    Alcotest.test_case "empty and singleton inputs" `Quick (fun () ->
        with_pool 3 (fun p ->
            check Alcotest.(list int) "empty" [] (Pool.map ~pool:p succ []);
            check Alcotest.(list int) "singleton" [ 8 ]
              (Pool.map ~pool:p succ [ 7 ])));
    Alcotest.test_case "chunked claiming keeps input order on large batches"
      `Quick (fun () ->
        (* 1000 items at 2/4 domains claims runs of >1 item per cursor
           bump; assembly must still be by input index *)
        let xs = List.init 1000 (fun i -> i - 500) in
        let f x = (x * 7) - 3 in
        let expected = List.map f xs in
        List.iter
          (fun n ->
            with_pool n (fun p ->
                check
                  Alcotest.(list int)
                  (Printf.sprintf "size %d" n)
                  expected (Pool.map ~pool:p f xs)))
          [ 2; 4 ]);
    Alcotest.test_case "expired budget enforced on singleton input" `Quick
      (fun () ->
        (* regression: the singleton shortcut used to run [f] without the
           Budget.check poll the sequential path performs *)
        let module Budget = Aladin_resilience.Budget in
        with_pool 2 (fun p ->
            match
              Budget.with_budget ~step:"single" 0.01 (fun () ->
                  (* spin until strictly past the deadline: remaining is
                     clamped at 0.0, so once it hits zero burn one more
                     clock tick — check () raises only on > *)
                  let rec spin () =
                    match Budget.remaining () with
                    | Some r when r > 0.0 -> spin ()
                    | _ ->
                        let t0 = Obs.Clock.now () in
                        while Obs.Clock.now () <= t0 do () done
                  in
                  spin ();
                  Pool.map ~pool:p succ [ 1 ])
            with
            | _ -> Alcotest.fail "expected Budget.Expired"
            | exception Budget.Expired (step, _) ->
                check Alcotest.string "step" "single" step));
    Alcotest.test_case "a caller's budget reaches every worker domain" `Quick
      (fun () ->
        let module Budget = Aladin_resilience.Budget in
        with_pool 4 (fun p ->
            (* each item waits (without polling) until all four run at
               once, one per domain, then polls the budget for up to 2 s:
               an item whose domain missed the caller's 0.1 s deadline
               holds the join for the full 2 s *)
            let started = Atomic.make 0 in
            let poll _ =
              Atomic.incr started;
              let t0 = Obs.Clock.now () in
              while Atomic.get started < 4 && Obs.Clock.now () -. t0 < 0.5 do
                Unix.sleepf 0.001
              done;
              let until = Obs.Clock.now () +. 2.0 in
              while Obs.Clock.now () < until do
                Budget.check ();
                Unix.sleepf 0.005
              done
            in
            let t0 = Obs.Clock.now () in
            (match
               Budget.with_budget ~step:"fan" 0.1 (fun () ->
                   Pool.map ~pool:p poll [ 1; 2; 3; 4 ])
             with
            | _ -> Alcotest.fail "expected Budget.Expired"
            | exception Budget.Expired (step, _) ->
                check Alcotest.string "step" "fan" step);
            let took = Obs.Clock.now () -. t0 in
            check Alcotest.bool
              (Printf.sprintf "expired within 1 s (took %.3f s)" took)
              true (took < 1.0);
            check
              Alcotest.(list int)
              "second batch" [ 2; 3; 4; 5 ]
              (Pool.map ~pool:p succ [ 1; 2; 3; 4 ])));
    Alcotest.test_case "exception propagates and the pool stays usable" `Quick
      (fun () ->
        with_pool 4 (fun p ->
            (match
               Pool.map ~pool:p
                 (fun x -> if x = 37 then failwith "boom" else x)
                 (List.init 80 Fun.id)
             with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> check Alcotest.string "msg" "boom" m);
            check
              Alcotest.(list int)
              "pool still works"
              (List.init 10 succ)
              (Pool.map ~pool:p succ (List.init 10 Fun.id))));
    Alcotest.test_case "nested fan-out is rejected" `Quick (fun () ->
        with_pool 2 (fun p ->
            let inner_rejected =
              Pool.map ~pool:p
                (fun _ ->
                  match Pool.map ~pool:p Fun.id [ 1; 2; 3 ] with
                  | _ -> false
                  | exception Invalid_argument _ -> true)
                [ 1; 2; 3; 4 ]
            in
            check Alcotest.bool "all rejected" true
              (List.for_all Fun.id inner_rejected)));
    Alcotest.test_case "run_sequential is List.map; size reports domains"
      `Quick (fun () ->
        check Alcotest.(list int) "seq" [ 2; 3; 4 ]
          (Pool.map succ [ 1; 2; 3 ]);
        with_pool 3 (fun p -> check Alcotest.int "size" 3 (Pool.size p)));
    Alcotest.test_case "shutdown is idempotent and falls back to sequential"
      `Quick (fun () ->
        let p = Pool.create ~domains:2 () in
        Pool.shutdown p;
        Pool.shutdown p;
        check Alcotest.int "size after shutdown" 1 (Pool.size p);
        check
          Alcotest.(list int)
          "still maps" [ 1; 2 ]
          (Pool.map ~pool:p succ [ 0; 1 ]));
    Alcotest.test_case "ambient counters/histograms merge exactly" `Quick
      (fun () ->
        with_pool 4 (fun p ->
            let tr = Obs.Trace.create ~name:"par" () in
            let n = 57 in
            Obs.Trace.with_ambient tr (fun () ->
                Obs.Trace.with_span tr "fan" (fun () ->
                    ignore
                      (Pool.map ~pool:p
                         (fun i ->
                           Obs.Trace.ambient_incr "par.items";
                           Obs.Trace.ambient_observe "par.cost"
                             (float_of_int i);
                           Obs.Trace.ambient_span "task" (fun () -> i))
                         (List.init n Fun.id))));
            check Alcotest.int "counter" n
              (Obs.Trace.counter_value tr "par.items");
            (match List.assoc_opt "par.cost" (Obs.Trace.histograms tr) with
            | Some h -> check Alcotest.int "histogram count" n (Obs.Histogram.count h)
            | None -> Alcotest.fail "par.cost histogram missing");
            match Obs.Trace.roots tr with
            | [ fan ] ->
                check Alcotest.(option string) "par.domains attr" (Some "4")
                  (List.assoc_opt "par.domains" (Obs.Span.attrs fan));
                check Alcotest.bool "has par.worker children" true
                  (List.exists
                     (fun sp -> Obs.Span.name sp = "par.worker")
                     (Obs.Span.children fan));
                (* every item is counted by the participant that ran it,
                   and its task span sits under that participant's span *)
                let workers =
                  List.filter
                    (fun sp -> Obs.Span.name sp = "par.worker")
                    (Obs.Span.children fan)
                in
                let attr sp k =
                  Option.value ~default:"?" (List.assoc_opt k (Obs.Span.attrs sp))
                in
                check Alcotest.int "items attrs sum to the batch" n
                  (List.fold_left
                     (fun acc sp -> acc + int_of_string (attr sp "items"))
                     0 workers);
                List.iter
                  (fun sp ->
                    let tasks = Obs.Span.children sp in
                    check Alcotest.int
                      ("task spans under worker " ^ attr sp "worker")
                      (int_of_string (attr sp "items"))
                      (List.length tasks);
                    check Alcotest.bool "only task spans" true
                      (List.for_all (fun t -> Obs.Span.name t = "task") tasks))
                  workers;
                check Alcotest.bool "no task span outside a worker" true
                  (List.for_all
                     (fun sp -> Obs.Span.name sp <> "task")
                     (Obs.Span.children fan))
            | roots ->
                Alcotest.fail (Printf.sprintf "%d roots" (List.length roots))));
  ]

(* --- pipeline determinism: pool size must never change any result --- *)

let tiny_corpus_params =
  {
    Dg.Corpus.default_params with
    universe =
      {
        Dg.Universe.default_params with
        n_proteins = 20; n_genes = 8; n_structures = 8; n_diseases = 4;
        n_terms = 8; n_families = 4;
      };
  }

let pipeline_tests =
  [
    Alcotest.test_case "warehouse results identical at domains 1/2/4" `Slow
      (fun () ->
        let corpus = Dg.Corpus.generate tiny_corpus_params in
        let run domains =
          let tr = Obs.Trace.create ~name:"det" () in
          let w =
            Aladin.Warehouse.integrate
              ~config:{ Aladin.Config.default with domains }
              ~trace:tr corpus.catalogs
          in
          let links =
            List.map
              (Format.asprintf "%a" Lk.Link.pp)
              (Aladin.Warehouse.links w)
          in
          let fks =
            List.concat_map
              (fun (e : Lk.Profile_list.entry) ->
                List.map
                  (Format.asprintf "%a" Ds.Inclusion.pp_fk)
                  e.sp.Ds.Source_profile.fks)
              (Lk.Profile_list.entries (Aladin.Warehouse.profiles w))
          in
          let dups =
            let r = Aladin.Warehouse.duplicates w in
            (r.clusters, List.map (Format.asprintf "%a" Lk.Link.pp) r.links)
          in
          (links, fks, dups, Obs.Trace.counters tr)
        in
        let links1, fks1, dups1, counters1 = run 1 in
        check Alcotest.bool "baseline finds links" true (links1 <> []);
        List.iter
          (fun d ->
            let links, fks, dups, counters = run d in
            let lbl s = Printf.sprintf "%s at domains=%d" s d in
            check Alcotest.(list string) (lbl "links") links1 links;
            check Alcotest.(list string) (lbl "fks") fks1 fks;
            check
              Alcotest.(pair (list (list string)) (list string))
              (lbl "dups") dups1 dups;
            check
              Alcotest.(list (pair string int))
              (lbl "trace counters") counters1 counters)
          [ 2; 4 ]);
  ]

let tests =
  [ ("par.pool", pool_tests); ("par.pipeline", pipeline_tests) ]
