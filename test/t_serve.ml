(* lib/serve: HTTP wire layer, LRU+TTL cache, the service compute path
   (determinism across pool sizes, cache invalidation, deadlines) and the
   socket server (overload backpressure, graceful drain).

   Socket tests fork a sequential child server (no pool: a forked child
   must not touch domains spawned before the fork), so they exercise the
   protocol and admission paths; parallel-compute determinism is tested
   in-process with real pools. *)

open Aladin
module Serve = Aladin_serve
module Http = Serve.Http
module Pool = Aladin_par.Pool

let check = Alcotest.check

let req target =
  match Http.parse_request (Printf.sprintf "GET %s HTTP/1.1\r\n" target) with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

(* --- http --- *)

let http_tests =
  [
    Alcotest.test_case "request parsing and query decoding" `Quick (fun () ->
        let r = req "/search?q=dna+repair&limit=5&x=%2Fa%26b" in
        check Alcotest.string "path" "/search" r.path;
        check Alcotest.(option string) "q" (Some "dna repair")
          (Http.query_param r "q");
        check Alcotest.(option string) "limit" (Some "5")
          (Http.query_param r "limit");
        check Alcotest.(option string) "decoded" (Some "/a&b")
          (Http.query_param r "x"));
    Alcotest.test_case "normalize_target sorts parameters" `Quick (fun () ->
        let a = req "/search?q=kinase&limit=5" in
        let b = req "/search?limit=5&q=kinase" in
        check Alcotest.string "equal keys" (Http.normalize_target a)
          (Http.normalize_target b);
        check Alcotest.bool "differs from other query" true
          (Http.normalize_target a <> Http.normalize_target (req "/search?q=x")));
    Alcotest.test_case "malformed request line rejected" `Quick (fun () ->
        (match Http.parse_request "NONSENSE\r\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "parsed nonsense");
        match Http.parse_request "GET /x SMTP/1.0\r\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "parsed non-http version");
    Alcotest.test_case "response render / parse round-trip" `Quick (fun () ->
        let resp =
          Http.response 200 ~content_type:"application/json"
            ~headers:[ ("x-cache", "hit") ]
            "{\"a\":1}\n"
        in
        match Http.parse_response (Http.render resp) with
        | Error msg -> Alcotest.fail msg
        | Ok back ->
            check Alcotest.int "status" 200 back.status;
            check Alcotest.string "body" "{\"a\":1}\n" back.body;
            check Alcotest.(option string) "x-cache" (Some "hit")
              (List.assoc_opt "x-cache" back.headers);
            check Alcotest.(option string) "content-length"
              (Some (string_of_int (String.length back.body)))
              (List.assoc_opt "content-length" back.headers));
    Alcotest.test_case "parse_response refuses a short body" `Quick
      (fun () ->
        let wire = Http.render (Http.response 200 "0123456789") in
        (match Http.parse_response (String.sub wire 0 (String.length wire - 3)) with
        | Error _ -> ()
        | Ok r -> Alcotest.failf "cut-off body parsed as %S" r.body);
        (match Http.parse_response "HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\nab" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "bad content-length parsed");
        match Http.parse_response "HTTP/1.1 200 OK\r\n\r\nto the end" with
        | Ok r -> check Alcotest.string "no length: to the end" "to the end" r.body
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "json_string escapes" `Quick (fun () ->
        check Alcotest.string "escaped" "\"a\\\"b\\\\c\\nd\""
          (Http.json_string "a\"b\\c\nd"));
  ]

(* --- cache --- *)

let cache_tests =
  [
    Alcotest.test_case "lru evicts least recently used" `Quick (fun () ->
        let c = Serve.Cache.create ~capacity:2 () in
        Serve.Cache.add c "a" 1;
        Serve.Cache.add c "b" 2;
        (* touch a so b becomes the LRU entry *)
        check Alcotest.(option int) "a hit" (Some 1) (Serve.Cache.find c "a");
        Serve.Cache.add c "c" 3;
        check Alcotest.(option int) "b evicted" None (Serve.Cache.find c "b");
        check Alcotest.(option int) "a kept" (Some 1) (Serve.Cache.find c "a");
        check Alcotest.(option int) "c kept" (Some 3) (Serve.Cache.find c "c");
        let s = Serve.Cache.stats c in
        check Alcotest.int "evictions" 1 s.evictions;
        check Alcotest.int "size" 2 s.size);
    Alcotest.test_case "hits and misses counted" `Quick (fun () ->
        let c = Serve.Cache.create ~capacity:8 () in
        check Alcotest.(option int) "miss" None (Serve.Cache.find c "k");
        Serve.Cache.add c "k" 1;
        check Alcotest.(option int) "hit" (Some 1) (Serve.Cache.find c "k");
        let s = Serve.Cache.stats c in
        check Alcotest.int "hits" 1 s.hits;
        check Alcotest.int "misses" 1 s.misses);
    Alcotest.test_case "capacity 0 disables" `Quick (fun () ->
        let c = Serve.Cache.create ~capacity:0 () in
        Serve.Cache.add c "k" 1;
        check Alcotest.(option int) "nothing stored" None (Serve.Cache.find c "k"));
  ]

(* --- service --- *)

let small_corpus =
  lazy
    (Aladin_datagen.Corpus.generate
       {
         Aladin_datagen.Corpus.default_params with
         universe =
           { Aladin_datagen.Universe.default_params with n_proteins = 24;
             n_genes = 10; n_structures = 8; n_diseases = 4; n_terms = 8;
             n_families = 3 };
       })

let engine = lazy (Engine.integrate (Lazy.force small_corpus).catalogs)

let batch_targets =
  [
    "/search?q=protein";
    "/search?q=repair&limit=4";
    "/search?q=protein&source=uniprot";
    "/query?sql=SELECT%20*%20FROM%20uniprot.entry";
    "/links?kind=xref";
    "/healthz";
  ]

(* a batch as the server answers it: each response's wire bytes *)
let handle_batch service reqs =
  List.map
    (fun wire ->
      match Http.parse_response wire with
      | Ok r -> r
      | Error msg -> Alcotest.fail msg)
    (Serve.Service.render_batch service reqs)

let run_batch ~domains =
  let pool = Pool.create ~domains () in
  let service = Serve.Service.create ~pool (Lazy.force engine) in
  let resps = handle_batch service (List.map req batch_targets) in
  List.map (fun (r : Http.response) -> (r.status, r.body)) resps

let service_tests =
  [
    Alcotest.test_case "responses byte-identical at 1/2/4 domains" `Quick
      (fun () ->
        let one = run_batch ~domains:1 in
        check Alcotest.bool "all 200" true (List.for_all (fun (s, _) -> s = 200) one);
        List.iter
          (fun domains ->
            let other = run_batch ~domains in
            List.iteri
              (fun i (s, body) ->
                let s1, body1 = List.nth one i in
                check Alcotest.int (Printf.sprintf "status %d @%d" i domains) s1 s;
                check Alcotest.string
                  (Printf.sprintf "body %d @%d" i domains)
                  body1 body)
              other)
          [ 2; 4 ]);
    Alcotest.test_case "concurrent first /object views all succeed" `Quick
      (fun () ->
        (* a batch of /object requests for objects with duplicates on
           a 4-domain pool: several domains read each fresh engine's
           browser and its conflict representations at once *)
        let corpus = Lazy.force small_corpus in
        let pool = Pool.create ~domains:4 () in
        for _ = 1 to 4 do
          let eng = Engine.integrate corpus.catalogs in
          let targets =
            Engine.links ~kind:"duplicate" eng
            |> List.concat_map (fun (l : Aladin_links.Link.t) -> [ l.src; l.dst ])
            |> List.sort_uniq Aladin_links.Objref.compare
            |> List.map (fun (o : Aladin_links.Objref.t) ->
                   Printf.sprintf "/object/%s/%s" o.source o.accession)
          in
          check Alcotest.bool "objects with duplicates" true
            (List.length targets >= 4);
          let service = Serve.Service.create ~pool eng in
          List.iter2
            (fun target (r : Http.response) ->
              check Alcotest.int target 200 r.status)
            targets
            (handle_batch service (List.map req targets))
        done);
    Alcotest.test_case "cached repeat is byte-identical, hit-flagged" `Quick
      (fun () ->
        let service = Serve.Service.create (Lazy.force engine) in
        let r = req "/search?q=protein" in
        let first = Serve.Service.handle service r in
        let second = Serve.Service.handle service r in
        check Alcotest.(option string) "first miss" (Some "miss")
          (List.assoc_opt "x-cache" first.headers);
        check Alcotest.(option string) "second hit" (Some "hit")
          (List.assoc_opt "x-cache" second.headers);
        check Alcotest.string "same body" first.body second.body;
        (* normalized target: parameter order does not defeat the cache *)
        let third = Serve.Service.handle service (req "/search?limit=10&q=protein") in
        let fourth = Serve.Service.handle service (req "/search?q=protein&limit=10") in
        check Alcotest.(option string) "miss on new target" (Some "miss")
          (List.assoc_opt "x-cache" third.headers);
        check Alcotest.(option string) "hit via normalization" (Some "hit")
          (List.assoc_opt "x-cache" fourth.headers));
    Alcotest.test_case "update_source invalidates via typed key" `Quick
      (fun () ->
        (* private engine: this test mutates it *)
        let corpus = Lazy.force small_corpus in
        let eng = Engine.integrate corpus.catalogs in
        let service = Serve.Service.create eng in
        let r = req "/search?q=protein" in
        ignore (Serve.Service.handle service r);
        let hit = Serve.Service.handle service r in
        check Alcotest.(option string) "cached before update" (Some "hit")
          (List.assoc_opt "x-cache" hit.headers);
        let cat = List.hd corpus.catalogs in
        let whole () =
          Aladin.Generation.get
            (Aladin.Warehouse.generation (Engine.warehouse eng))
            Aladin.Generation.Whole
        in
        let gen0 = whole () in
        let upd =
          Engine.update_source eng cat
            ~changed_rows:(Aladin_relational.Catalog.total_rows cat)
        in
        (match upd.Aladin.Warehouse.outcome with
        | `Reanalyzed _ -> ()
        | `Deferred -> Alcotest.fail "full-source change was deferred");
        check Alcotest.bool "generation bumped" true (whole () > gen0);
        let after = Serve.Service.handle service r in
        check Alcotest.(option string) "miss after update" (Some "miss")
          (List.assoc_opt "x-cache" after.headers);
        check Alcotest.string "same answer after reanalysis" hit.body after.body);
    Alcotest.test_case "warm cache survives unrelated-source update" `Quick
      (fun () ->
        (* a /query over uniprot keys on [Source "uniprot"] only: an
           update of pdb must leave its cached entry serving hits, while
           an update of uniprot itself must orphan it *)
        let corpus = Lazy.force small_corpus in
        let eng = Engine.integrate corpus.catalogs in
        let service = Serve.Service.create eng in
        let find_cat name =
          List.find
            (fun c -> Aladin_relational.Catalog.name c = name)
            corpus.catalogs
        in
        let update name =
          let cat = find_cat name in
          let upd =
            Engine.update_source eng cat
              ~changed_rows:(Aladin_relational.Catalog.total_rows cat)
          in
          match upd.Aladin.Warehouse.outcome with
          | `Reanalyzed _ -> ()
          | `Deferred -> Alcotest.fail (name ^ " update was deferred")
        in
        let r = req "/query?sql=SELECT%20*%20FROM%20uniprot.entry" in
        let first = Serve.Service.handle service r in
        check Alcotest.int "query ok" 200 first.status;
        update "pdb";
        let warm = Serve.Service.handle service r in
        check Alcotest.(option string) "hit across unrelated update"
          (Some "hit")
          (List.assoc_opt "x-cache" warm.headers);
        check Alcotest.string "same body across unrelated update" first.body
          warm.body;
        update "uniprot";
        let cold = Serve.Service.handle service r in
        check Alcotest.(option string) "miss after own-source update"
          (Some "miss")
          (List.assoc_opt "x-cache" cold.headers);
        check Alcotest.string "same body after own-source reanalysis"
          first.body cold.body);
    Alcotest.test_case "request budget maps to 503 with retry-after" `Quick
      (fun () ->
        let service =
          Serve.Service.create
            ~config:
              {
                Serve.Service.default_config with
                request_budget = Some 0.05;
                debug_endpoints = true;
              }
            (Lazy.force engine)
        in
        let resp = Serve.Service.handle service (req "/slow?seconds=5") in
        check Alcotest.int "503" 503 resp.status;
        check Alcotest.(option string) "retry-after" (Some "1")
          (List.assoc_opt "retry-after" resp.headers));
    Alcotest.test_case "a request deadline stays with its own request" `Quick
      (fun () ->
        (* one slow request beside three fast ones on a 4-domain pool:
           the slow one's deadline fires on the domain that handles it,
           and the others answer as a fresh service does *)
        let config =
          {
            Serve.Service.default_config with
            request_budget = Some 0.05;
            debug_endpoints = true;
          }
        in
        let fast = [ "/search?q=protein"; "/links?kind=xref"; "/healthz" ] in
        let pool = Pool.create ~domains:4 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let service = Serve.Service.create ~pool ~config (Lazy.force engine) in
            let t0 = Aladin_obs.Clock.now () in
            let wires =
              Serve.Service.render_batch service
                (List.map req ("/slow?seconds=5" :: fast))
            in
            let took = Aladin_obs.Clock.now () -. t0 in
            check Alcotest.bool
              (Printf.sprintf "answered within 1 s (took %.3f s)" took)
              true (took < 1.0);
            match wires with
            | slow :: rest ->
                (match Http.parse_response slow with
                | Ok r -> check Alcotest.int "slow request" 503 r.status
                | Error msg -> Alcotest.fail msg);
                List.iter2
                  (fun target wire ->
                    let fresh =
                      Serve.Service.render_batch
                        (Serve.Service.create (Lazy.force engine))
                        [ req target ]
                    in
                    (match Http.parse_response wire with
                    | Ok r -> check Alcotest.int (target ^ " status") 200 r.status
                    | Error msg -> Alcotest.fail msg);
                    check Alcotest.(list string) (target ^ " bytes") fresh [ wire ])
                  fast rest
            | [] -> Alcotest.fail "no responses"));
    Alcotest.test_case "malformed SQL is a 400, not a counted failure" `Quick
      (fun () ->
        let service = Serve.Service.create (Lazy.force engine) in
        let failures () =
          String.split_on_char '\n' (Serve.Service.metrics_text service)
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ "aladin_request_failures_total"; n ] -> int_of_string_opt n
                 | _ -> None)
        in
        let before = failures () in
        let unterminated =
          Serve.Service.handle service
            (req
               "/query?sql=SELECT%20accession%20FROM%20uniprot.entry%20WHERE%20accession%20%3D%20'x")
        in
        check Alcotest.int "lexer error status" 400 unterminated.status;
        check Alcotest.string "lexer error body"
          "lex error: unterminated string literal\n" unterminated.body;
        let misspelt =
          Serve.Service.handle service (req "/query?sql=SELEC%20accession")
        in
        check Alcotest.int "parse error status" 400 misspelt.status;
        check Alcotest.(option int) "no failure counted" before (failures ()));
    Alcotest.test_case "slow endpoint hidden without debug" `Quick (fun () ->
        let service = Serve.Service.create (Lazy.force engine) in
        check Alcotest.int "404" 404
          (Serve.Service.handle service (req "/slow?seconds=0")).status);
    Alcotest.test_case "metrics text lists routes and cache counters" `Quick
      (fun () ->
        let service = Serve.Service.create (Lazy.force engine) in
        ignore (Serve.Service.handle service (req "/search?q=protein"));
        ignore (Serve.Service.handle service (req "/search?q=protein"));
        let m = Serve.Service.metrics_text ~extra:[ ("x_gauge", 7.0) ] service in
        let has needle =
          let nl = String.length needle and ml = String.length m in
          let rec go i =
            i + nl <= ml && (String.sub m i nl = needle || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun needle -> check Alcotest.bool needle true (has needle))
          [
            "aladin_cache_hits_total 1";
            "aladin_cache_misses_total 1";
            "aladin_requests_total{route=\"search\"} 2";
            "aladin_request_seconds_count{route=\"search\"} 1";
            "x_gauge 7.0";
          ]);
  ]

(* --- socket server --- *)

(* The server runs in a thread of this process (OCaml 5 forbids fork once
   domains exist, and earlier suites have spawned pool domains). Drain is
   triggered through the external [stop] flag — the SIGTERM handler sets
   the very same flag, and the signal path itself is covered by the
   scripts/check.sh smoke test. Returns the server's final stats. *)
let with_server ?(max_queue = 16) ?(request_budget = Some 5.0) f =
  let service =
    Serve.Service.create
      ~config:
        { Serve.Service.default_config with request_budget;
          debug_endpoints = true }
      (Lazy.force engine)
  in
  let stop = Atomic.make false in
  let port_box = Atomic.make 0 in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        let cfg = { Serve.Server.default_config with port = 0; max_queue } in
        stats :=
          Some
            (Serve.Server.run ~config:cfg ~stop
               ~on_ready:(fun p -> Atomic.set port_box p)
               service))
      ()
  in
  let rec wait_port n =
    match Atomic.get port_box with
    | 0 when n < 1000 ->
        Thread.delay 0.01;
        wait_port (n + 1)
    | 0 -> Alcotest.fail "server did not start"
    | p -> p
  in
  let port = wait_port 0 in
  let finally () =
    Atomic.set stop true;
    Thread.join th
  in
  Fun.protect ~finally (fun () -> f ~port ~stop);
  match !stats with
  | Some s -> s
  | None -> Alcotest.fail "server returned no stats"

(* a raw connection we control precisely: send now, read later *)
let open_conn port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let s = Printf.sprintf "GET %s HTTP/1.1\r\nconnection: close\r\n\r\n" target in
  ignore (Unix.write_substring fd s 0 (String.length s));
  fd

(* every byte the peer sends, up to its close *)
let read_raw fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  (try
     let rec go () =
       match Unix.read fd chunk 0 1024 with
       | 0 -> ()
       | k ->
           Buffer.add_subbytes buf chunk 0 k;
           go ()
     in
     go ()
   with Unix.Unix_error _ -> ());
  Unix.close fd;
  Buffer.contents buf

let read_resp fd =
  match Http.parse_response (read_raw fd) with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("unparsable response: " ^ msg)

(* A listener that answers one connection with [pieces], each its own
   write, a pause between them. With [hold] it then waits for the
   client to close before closing, so a client that read to end of file
   would time out instead of returning. *)
let with_raw_listener ?(hold = false) pieces f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "listener has no port"
  in
  (* a client that never connects makes the accept time out *)
  Unix.setsockopt_float lfd Unix.SO_RCVTIMEO 10.0;
  let answer () =
    match Unix.accept lfd with
    | exception Unix.Unix_error _ -> ()
    | conn, _ ->
        Unix.setsockopt_float conn Unix.SO_RCVTIMEO 10.0;
        let chunk = Bytes.create 1024 in
        (* the request head, then the scripted reply *)
        let rec head acc =
          if not (Aladin_text.Strdist.contains ~needle:"\r\n\r\n" acc) then
            match Unix.read conn chunk 0 1024 with
            | 0 -> ()
            | k -> head (acc ^ Bytes.sub_string chunk 0 k)
        in
        (try
           head "";
           List.iter
             (fun p ->
               ignore (Unix.write_substring conn p 0 (String.length p));
               Thread.delay 0.005)
             pieces;
           if hold then ignore (Unix.read conn chunk 0 1024)
         with Unix.Unix_error _ -> ());
        Unix.close conn
  in
  (* a client that gives up early must not kill this process *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let th = Thread.create answer () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join th;
      Unix.close lfd;
      Sys.set_signal Sys.sigpipe prev_pipe)
    (fun () -> f port)

(* [s] cut into pieces of [n] bytes *)
let pieces_of n s =
  List.init
    ((String.length s + n - 1) / n)
    (fun i -> String.sub s (i * n) (min n (String.length s - (i * n))))

let fetch_raw ?hold pieces =
  with_raw_listener ?hold pieces (fun port ->
      Serve.Client.request ~port "/x")

let client_tests =
  let ok = function
    | Ok (r : Http.response) -> r
    | Error msg -> Alcotest.fail msg
  in
  let refused what = function
    | Error _ -> ()
    | Ok (r : Http.response) ->
        Alcotest.failf "%s: accepted a body of %d bytes" what
          (String.length r.body)
  in
  [
    Alcotest.test_case "body over 64 KiB in pieces, no read past it" `Quick
      (fun () ->
        let body = String.init 200_000 (fun i -> Char.chr (32 + (i mod 90))) in
        let wire = Http.render (Http.response 200 body) in
        let r = ok (fetch_raw ~hold:true (pieces_of 7_000 wire)) in
        check Alcotest.int "status" 200 r.status;
        check Alcotest.bool "body byte-identical" true (r.body = body));
    Alcotest.test_case "head split across writes" `Quick (fun () ->
        let r =
          ok
            (fetch_raw ~hold:true
               [ "HTTP/1.1 200 OK\r\ncontent-le"; "ngth: 5\r\nx-a: b\r\n\r";
                 "\nhel"; "lo" ])
        in
        check Alcotest.string "body" "hello" r.body;
        check Alcotest.(option string) "header" (Some "b") (Http.header r "X-A"));
    Alcotest.test_case "no content-length reads to end of file" `Quick
      (fun () ->
        let r =
          ok
            (fetch_raw
               [ "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\n\r\npart one,";
                 " part two" ])
        in
        check Alcotest.string "body" "part one, part two" r.body);
    Alcotest.test_case "short body is an error" `Quick (fun () ->
        refused "short body"
          (fetch_raw
             [ "HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\n";
               String.make 40 'a' ]));
    Alcotest.test_case "oversized content-length refused unallocated" `Quick
      (fun () ->
        let before = Gc.allocated_bytes () in
        refused "oversized"
          (fetch_raw ~hold:true
             [ "HTTP/1.1 200 OK\r\ncontent-length: 16777217\r\n\r\nab" ]);
        check Alcotest.bool "nothing of that size allocated" true
          (Gc.allocated_bytes () -. before < 1_048_576.0));
  ]

(* every route of the small corpus, as targets; the object ones name
   the first object the engine lists *)
let route_targets () =
  let o = List.hd (Engine.objects (Lazy.force engine)) in
  [
    "/healthz";
    "/search?q=protein";
    "/search?q=repair&limit=4&source=uniprot";
    "/search";
    Printf.sprintf "/object/%s/%s" o.source o.accession;
    "/object?accession=" ^ o.accession;
    "/object/nosuch/X1";
    "/resolve?accession=" ^ o.accession;
    "/resolve?accession=NOSUCH";
    "/query?sql=SELECT%20*%20FROM%20uniprot.entry";
    "/query?sql=SELEC%20accession";
    "/links";
    "/links?kind=xref";
    "/nosuch";
  ]

(* [cat] with one cell of [relation] changed: its first text value
   holding a space (a description, not an accession) gains a prefix *)
let edited ~relation cat =
  let open Aladin_relational in
  let out = Catalog.create ~name:(Catalog.name cat) in
  let pending = ref true in
  List.iter
    (fun rel ->
      let r =
        Catalog.create_relation out ~name:(Relation.name rel) (Relation.schema rel)
      in
      Relation.iter_rows
        (fun row ->
          let row =
            Array.map
              (function
                | Value.Text s
                  when !pending && Relation.name rel = relation
                       && String.contains s ' ' ->
                    pending := false;
                    Value.Text ("edited " ^ s)
                | v -> v)
              row
          in
          Relation.insert r row)
        rel)
    (Catalog.relations cat);
  out

let mutation_tests =
  [
    Alcotest.test_case "a cache hit equals a fresh response after every mutation"
      `Quick (fun () ->
        let eng = Engine.integrate (Lazy.force small_corpus).catalogs in
        let w = Engine.warehouse eng in
        let source = "uniprot" in
        let o =
          List.find (fun (o : Aladin_links.Objref.t) -> o.source = source)
            (Engine.objects eng)
        in
        (* a relation name only one source holds, addressed bare *)
        let bare =
          let open Aladin_relational in
          let names =
            List.concat_map
              (fun c -> List.map Relation.name (Catalog.relations c))
              (Warehouse.catalogs w)
          in
          List.find
            (fun n -> List.length (List.filter (( = ) n) names) = 1)
            (List.map Relation.name
               (Catalog.relations (Option.get (Warehouse.catalog w source))))
        in
        let kinds () =
          List.sort_uniq compare
            (List.map
               (fun (l : Aladin_links.Link.t) -> Aladin_links.Link.kind_name l.kind)
               (Engine.links eng))
        in
        let targets =
          [ "/search?q=protein";
            "/search?q=repair&limit=4&source=" ^ source;
            Printf.sprintf "/object/%s/%s" o.source o.accession;
            "/object?accession=" ^ o.accession;
            "/resolve?accession=" ^ o.accession;
            "/query?sql=SELECT%20*%20FROM%20" ^ source ^ ".entry";
            "/query?sql=SELECT%20*%20FROM%20" ^ bare;
            "/links" ]
          @ List.map (fun k -> "/links?kind=" ^ k) (kinds ())
          (* the view of an end of each link rejected below *)
          @ List.sort_uniq compare
              (List.filter_map
                 (fun k ->
                   match Engine.links ~kind:k eng with
                   | (l : Aladin_links.Link.t) :: _ ->
                       Some (Printf.sprintf "/object/%s/%s" l.src.source l.src.accession)
                   | [] -> None)
                 (kinds ()))
        in
        let warm = Serve.Service.create eng in
        List.iter
          (fun t ->
            check Alcotest.int ("warm " ^ t) 200
              (Serve.Service.handle warm (req t)).status)
          targets;
        (* every target from the warm service against a fresh one; the
           targets whose warm answers were cache hits *)
        let agree step =
          let fresh = Serve.Service.create eng in
          List.filter
            (fun t ->
              let a = Serve.Service.handle warm (req t)
              and b = Serve.Service.handle fresh (req t) in
              check Alcotest.int (step ^ ": status of " ^ t) b.status a.status;
              check Alcotest.string (step ^ ": body of " ^ t) b.body a.body;
              List.assoc_opt "x-cache" a.headers = Some "hit")
            targets
        in
        (* a rejection reads no profile: the search, resolve and query
           entries stay valid *)
        let link_free =
          List.filter
            (fun t ->
              not (String.starts_with ~prefix:"/links" t
                   || String.starts_with ~prefix:"/object" t))
            targets
        in
        List.iter
          (fun k ->
            match Engine.links ~kind:k eng with
            | l :: _ ->
                Engine.reject_link eng l;
                check Alcotest.(list string) ("hits after rejecting a " ^ k ^ " link")
                  link_free
                  (List.filter
                     (fun t -> List.mem t link_free)
                     (agree ("reject a " ^ k ^ " link")))
            | [] -> ())
          (kinds ());
        let cat = Option.get (Warehouse.catalog w source) in
        (match
           (Engine.update_source eng (edited ~relation:"entry" cat)
              ~changed_rows:(Aladin_relational.Catalog.total_rows cat)).outcome
         with
        | `Reanalyzed _ -> ignore (agree "reanalyzing update")
        | `Deferred -> Alcotest.fail "the full update was deferred");
        let cat = Option.get (Warehouse.catalog w source) in
        match
          (Engine.update_source eng (edited ~relation:"entry" cat) ~changed_rows:1)
            .outcome
        with
        | `Deferred ->
            (* nothing changed, so every entry still serves *)
            check Alcotest.(list string) "all hits after a deferred update"
              targets (agree "deferred update")
        | `Reanalyzed _ -> Alcotest.fail "the one-row update was not deferred");
  ]

(* --- the serve twin: random request streams against a fresh service ---

   Each case integrates the small corpus afresh, then runs a random
   stream of cacheable requests through one long-lived service,
   interleaved with mutations made through the engine: a rejection of
   one of a kind's first two links (whose ends the requests view), a
   reanalyzing update of a random source, and a deferred one (which
   reanalyzes once the deferred rows add up). Every answer
   must equal, in status and body, a fresh service's answer to the same
   request at that point: a route that under-declares what it reads
   serves a stale hit. ALADIN_SOAK=N runs N times the cases. *)

type twin_op =
  | Get of int
  | Reject of int * int  (* a kind, then one of its first two links *)
  | Reanalyze of int
  | Defer of int

let twin_seed = 20261020

let soak =
  match Option.bind (Sys.getenv_opt "ALADIN_SOAK") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1

let twin_ops =
  let open QCheck.Gen in
  (* uniform picks: [nat] favours small numbers *)
  let pick = int_bound 9999 in
  let op =
    frequency
      [ (12, map (fun i -> Get i) pick);
        (4, map2 (fun k i -> Reject (k, i)) pick pick);
        (1, map (fun i -> Reanalyze i) pick); (1, map (fun i -> Defer i) pick) ]
  in
  let print = function
    | Get i -> Printf.sprintf "get %d" i
    | Reject (k, i) -> Printf.sprintf "reject %d %d" k i
    | Reanalyze i -> Printf.sprintf "reanalyze %d" i
    | Defer i -> Printf.sprintf "defer %d" i
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 20 60) op)

let nth l i = List.nth l (i mod List.length l)

(* the links a [Reject (k, i)] picks from: the first two of kind [k] *)
let twin_rejectable eng k =
  List.filteri
    (fun i _ -> i < 2)
    (Engine.links ~kind:(Aladin_links.Link.kind_name (nth Aladin_links.Link.kinds k)) eng)

(* the cacheable targets: every route, over each source and over the
   objects the rejectable links start at *)
let twin_targets eng =
  let w = Engine.warehouse eng in
  let sources = Warehouse.sources w in
  let relation s =
    Aladin_relational.Relation.name
      (List.hd (Aladin_relational.Catalog.relations (Option.get (Warehouse.catalog w s))))
  in
  let objects =
    List.sort_uniq compare
      (List.concat
         (List.mapi
            (fun k _ ->
              List.map (fun (l : Aladin_links.Link.t) -> l.src) (twin_rejectable eng k))
            Aladin_links.Link.kinds))
  in
  Array.of_list
    (List.map (fun q -> "/search?q=" ^ q) [ "protein"; "kinase"; "edited" ]
    @ List.map (fun s -> "/search?q=protein&source=" ^ s) sources
    @ List.concat_map
        (fun (o : Aladin_links.Objref.t) ->
          [ Printf.sprintf "/object/%s/%s" o.source o.accession;
            "/object?accession=" ^ o.accession;
            "/resolve?accession=" ^ o.accession ])
        objects
    @ List.map
        (fun s -> Printf.sprintf "/query?sql=SELECT%%20*%%20FROM%%20%s.%s" s (relation s))
        sources
    @ List.map (fun s -> "/query?sql=SELECT%20*%20FROM%20" ^ relation s) sources
    @ [ "/links" ]
    @ List.map
        (fun k -> "/links?kind=" ^ Aladin_links.Link.kind_name k)
        Aladin_links.Link.kinds)

let twin_case ops =
  let eng = Engine.integrate (Lazy.force small_corpus).catalogs in
  let w = Engine.warehouse eng in
  let targets = twin_targets eng in
  let warm = Serve.Service.create eng in
  let update i ~changed_rows =
    let cat = Option.get (Warehouse.catalog w (nth (Warehouse.sources w) i)) in
    let relation =
      Aladin_relational.Relation.name (List.hd (Aladin_relational.Catalog.relations cat))
    in
    ignore
      (Engine.update_source eng (edited ~relation cat)
         ~changed_rows:(changed_rows cat))
  in
  List.iter
    (function
      | Get i ->
          let t = targets.(i mod Array.length targets) in
          let a = Serve.Service.handle warm (req t)
          and b = Serve.Service.handle (Serve.Service.create eng) (req t) in
          if a.status <> b.status || a.body <> b.body then
            QCheck.Test.fail_reportf "%s: warm %d (%s), fresh %d" t a.status
              (Option.value ~default:"?" (List.assoc_opt "x-cache" a.headers))
              b.status
      | Reject (k, i) -> (
          match twin_rejectable eng k with
          | [] -> ()
          | links -> Engine.reject_link eng (nth links i))
      | Reanalyze i ->
          update i ~changed_rows:Aladin_relational.Catalog.total_rows
      | Defer i -> update i ~changed_rows:(fun _ -> 1))
    ops;
  true

let twin_tests =
  [
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| twin_seed |])
      (QCheck.Test.make ~name:"random streams: every answer equals a fresh service's"
         ~count:(10 * soak) twin_ops twin_case);
  ]

let server_tests =
  [
    Alcotest.test_case "wire bytes of every route, miss then hit" `Quick
      (fun () ->
        let targets = route_targets () in
        (* what the reply must be: a fresh in-process response, rendered
           with the x-cache value the reply should carry (none for the
           server's inline /healthz) *)
        let fresh = Serve.Service.create (Lazy.force engine) in
        let expected ~round target =
          let resp = Serve.Service.handle fresh (req target) in
          if target = "/healthz" then Http.render (Http.response 200 "ok\n")
          else
            let cached = round = 2 && resp.status = 200 in
            Http.render
              (Http.with_header resp "x-cache" (if cached then "hit" else "miss"))
        in
        let stats =
          with_server (fun ~port ~stop:_ ->
              List.iter
                (fun round ->
                  List.iter
                    (fun target ->
                      let got = read_raw (open_conn port target) in
                      check Alcotest.string
                        (Printf.sprintf "round %d %s" round target)
                        (expected ~round target) got)
                    targets)
                [ 1; 2 ])
        in
        check Alcotest.int "no write errors" 0 stats.write_errors);
    Alcotest.test_case "end-to-end over a socket" `Quick (fun () ->
        let stats =
          with_server (fun ~port ~stop:_ ->
              (match Serve.Client.request ~port "/healthz" with
              | Ok r ->
                  check Alcotest.int "healthz 200" 200 r.status;
                  check Alcotest.string "healthz body" "ok\n" r.body
              | Error msg -> Alcotest.fail msg);
              match Serve.Client.request ~port "/search?q=protein" with
              | Ok r ->
                  check Alcotest.int "search 200" 200 r.status;
                  check Alcotest.bool "json body" true
                    (String.length r.body > 2 && r.body.[0] = '{')
              | Error msg -> Alcotest.fail msg)
        in
        check Alcotest.int "one batched request" 1 stats.served;
        check Alcotest.int "healthz inline" 1 stats.inline_served);
    Alcotest.test_case "overload rejects with 503, in-flight unharmed" `Quick
      (fun () ->
        let stats =
          with_server ~max_queue:1 (fun ~port ~stop:_ ->
              (* occupy the server with one slow batch... *)
              let slow = open_conn port "/slow?seconds=1.0" in
              Unix.sleepf 0.35;
              (* ...pile connections up behind it; the next accept burst
                 admits one and must 503 the rest before any compute *)
              let others =
                List.init 4 (fun _ -> open_conn port "/slow?seconds=0")
              in
              let slow_resp = read_resp slow in
              let resps = List.map read_resp others in
              check Alcotest.int "slow request served in full" 200
                slow_resp.status;
              check Alcotest.string "slow body intact" "slept 1.000s\n"
                slow_resp.body;
              let ok, busy =
                List.partition (fun (r : Http.response) -> r.status = 200) resps
              in
              check Alcotest.int "one admitted" 1 (List.length ok);
              check Alcotest.int "three rejected" 3 (List.length busy);
              List.iter
                (fun (r : Http.response) ->
                  check Alcotest.int "503" 503 r.status;
                  check Alcotest.(option string) "retry-after" (Some "1")
                    (List.assoc_opt "retry-after" r.headers))
                busy)
        in
        check Alcotest.int "rejections counted" 3 stats.rejected;
        check Alcotest.int "no write errors" 0 stats.write_errors);
    Alcotest.test_case "graceful drain finishes admitted work" `Quick (fun () ->
        let stats =
          with_server (fun ~port ~stop ->
              let c = open_conn port "/slow?seconds=0.4" in
              Unix.sleepf 0.15;
              (* the request is mid-batch: draining must not cut it off *)
              Atomic.set stop true;
              let resp = read_resp c in
              check Alcotest.int "drained response status" 200 resp.status;
              check Alcotest.string "drained response body" "slept 0.400s\n"
                resp.body)
        in
        check Alcotest.int "admitted request served through drain" 1
          stats.served);
  ]

let tests =
  [
    ("serve.http", http_tests);
    ("serve.cache", cache_tests);
    ("serve.service", service_tests @ mutation_tests @ twin_tests);
    ("serve.server", server_tests);
    ("serve.client", client_tests);
  ]
