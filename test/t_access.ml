open Aladin_relational
open Aladin_access

let check = Alcotest.check

let lexer_tests =
  [
    Alcotest.test_case "tokens" `Quick (fun () ->
        match Sql_lexer.tokenize "SELECT a, b FROM t WHERE x = 'v'" with
        | [ Kw "SELECT"; Ident "a"; Comma; Ident "b"; Kw "FROM"; Ident "t";
            Kw "WHERE"; Ident "x"; Eq; String_lit "v" ] -> ()
        | _ -> Alcotest.fail "bad tokens");
    Alcotest.test_case "escaped quote in string" `Quick (fun () ->
        match Sql_lexer.tokenize "'it''s'" with
        | [ String_lit "it's" ] -> ()
        | _ -> Alcotest.fail "bad string");
    Alcotest.test_case "numbers" `Quick (fun () ->
        match Sql_lexer.tokenize "42 -3.5" with
        | [ Number_lit a; Number_lit b ] ->
            check (Alcotest.float 0.001) "int" 42.0 a;
            check (Alcotest.float 0.001) "neg float" (-3.5) b
        | _ -> Alcotest.fail "bad numbers");
    Alcotest.test_case "operators" `Quick (fun () ->
        match Sql_lexer.tokenize "<> <= >= < > != =" with
        | [ Neq; Le; Ge; Lt; Gt; Neq; Eq ] -> ()
        | _ -> Alcotest.fail "bad ops");
    Alcotest.test_case "unterminated string raises" `Quick (fun () ->
        match Sql_lexer.tokenize "'oops" with
        | exception Sql_lexer.Lex_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "keywords case-insensitive" `Quick (fun () ->
        match Sql_lexer.tokenize "select From" with
        | [ Kw "SELECT"; Kw "FROM" ] -> ()
        | _ -> Alcotest.fail "bad keywords");
  ]

let parser_tests =
  [
    Alcotest.test_case "full query" `Quick (fun () ->
        let q =
          Sql_parser.parse
            "SELECT t.a, b FROM t JOIN u ON t.a = u.a WHERE b > 3 AND c = 'x' \
             ORDER BY b DESC LIMIT 10"
        in
        check Alcotest.int "projection" 2 (List.length q.projection);
        check Alcotest.string "from" "t" q.from_table;
        check Alcotest.int "joins" 1 (List.length q.joins);
        (match q.where with
        | Some (Sql_parser.And (_, _)) -> ()
        | Some _ | None -> Alcotest.fail "expected conjunction");
        check Alcotest.bool "order desc" true
          (match q.order_by with Some o -> o.descending | None -> false);
        check Alcotest.(option int) "limit" (Some 10) q.limit);
    Alcotest.test_case "star projection" `Quick (fun () ->
        let q = Sql_parser.parse "SELECT * FROM t" in
        check Alcotest.int "empty proj" 0 (List.length q.projection));
    Alcotest.test_case "distinct" `Quick (fun () ->
        check Alcotest.bool "flag" true (Sql_parser.parse "SELECT DISTINCT a FROM t").distinct);
    Alcotest.test_case "is null predicates" `Quick (fun () ->
        let q = Sql_parser.parse "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL" in
        match q.where with
        | Some (Sql_parser.And (Sql_parser.Is_null _, Sql_parser.Is_not_null _)) -> ()
        | Some _ | None -> Alcotest.fail "bad predicates");
    Alcotest.test_case "or / not / parens precedence" `Quick (fun () ->
        let q = Sql_parser.parse "SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT (c = 3)" in
        match q.where with
        | Some (Sql_parser.Or (Sql_parser.Compare _,
                               Sql_parser.And (Sql_parser.Compare _,
                                               Sql_parser.Not (Sql_parser.Compare _)))) -> ()
        | Some _ | None -> Alcotest.fail "bad precedence");
    Alcotest.test_case "in list" `Quick (fun () ->
        let q = Sql_parser.parse "SELECT * FROM t WHERE a IN ('x', 'y', 3)" in
        match q.where with
        | Some (Sql_parser.In_list (_, [ _; _; _ ])) -> ()
        | Some _ | None -> Alcotest.fail "bad in-list");
    Alcotest.test_case "aggregates and group by" `Quick (fun () ->
        let q =
          Sql_parser.parse
            "SELECT city_id, COUNT(*), AVG(age) FROM people GROUP BY city_id"
        in
        check Alcotest.int "items" 3 (List.length q.projection);
        check Alcotest.int "group cols" 1 (List.length q.group_by);
        match q.projection with
        | [ Sql_parser.Item_col _; Sql_parser.Item_agg Sql_parser.Count_star;
            Sql_parser.Item_agg (Sql_parser.Avg _) ] -> ()
        | _ -> Alcotest.fail "bad projection");
    Alcotest.test_case "qualified column split" `Quick (fun () ->
        let q = Sql_parser.parse "SELECT src.tbl.attr FROM src.tbl" in
        match q.projection with
        | [ Sql_parser.Item_col { table = Some "src.tbl"; attr = "attr" } ] -> ()
        | _ -> Alcotest.fail "bad column");
    Alcotest.test_case "trailing garbage raises" `Quick (fun () ->
        match Sql_parser.parse "SELECT * FROM t extra" with
        | exception Sql_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "missing from raises" `Quick (fun () ->
        match Sql_parser.parse "SELECT a" with
        | exception Sql_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "no error");
  ]

let fixture_catalog () =
  let cat = Catalog.create ~name:"db" in
  let people =
    Catalog.create_relation cat ~name:"people"
      (Schema.of_names [ "id"; "name"; "age"; "city_id" ])
  in
  List.iter (Relation.insert people)
    [
      [| Value.Int 1; Value.text "ada"; Value.Int 36; Value.Int 1 |];
      [| Value.Int 2; Value.text "bob"; Value.Int 28; Value.Int 2 |];
      [| Value.Int 3; Value.text "cyd"; Value.Int 41; Value.Int 1 |];
      [| Value.Int 4; Value.text "dee"; Value.Null; Value.Int 2 |];
    ];
  let cities =
    Catalog.create_relation cat ~name:"cities"
      (Schema.of_names [ "id"; "city" ])
  in
  List.iter (Relation.insert cities)
    [ [| Value.Int 1; Value.text "berlin" |]; [| Value.Int 2; Value.text "paris" |] ];
  cat

let run q =
  Sql_eval.run ~resolve:(Catalog.find (fixture_catalog ())) q

let eval_tests =
  [
    Alcotest.test_case "select star" `Quick (fun () ->
        check Alcotest.int "rows" 4 (Relation.cardinality (run "SELECT * FROM people")));
    Alcotest.test_case "where comparison" `Quick (fun () ->
        check Alcotest.int "age > 30" 2
          (Relation.cardinality (run "SELECT * FROM people WHERE age > 30")));
    Alcotest.test_case "where equality string" `Quick (fun () ->
        check Alcotest.int "ada" 1
          (Relation.cardinality (run "SELECT * FROM people WHERE name = 'ada'")));
    Alcotest.test_case "like" `Quick (fun () ->
        check Alcotest.int "names with d" 3
          (Relation.cardinality (run "SELECT * FROM people WHERE name LIKE '%d%'"));
        check Alcotest.int "names ending e" 1
          (Relation.cardinality (run "SELECT * FROM people WHERE name LIKE '%e'")));
    Alcotest.test_case "is null" `Quick (fun () ->
        check Alcotest.int "null age" 1
          (Relation.cardinality (run "SELECT * FROM people WHERE age IS NULL"));
        check Alcotest.int "non-null" 3
          (Relation.cardinality (run "SELECT * FROM people WHERE age IS NOT NULL")));
    Alcotest.test_case "join" `Quick (fun () ->
        let r =
          run "SELECT people.name, cities.city FROM people JOIN cities ON people.city_id = cities.id"
        in
        check Alcotest.int "rows" 4 (Relation.cardinality r);
        check Alcotest.int "cols" 2 (Schema.arity (Relation.schema r)));
    Alcotest.test_case "join condition reversed" `Quick (fun () ->
        let r =
          run "SELECT * FROM people JOIN cities ON cities.id = people.city_id"
        in
        check Alcotest.int "rows" 4 (Relation.cardinality r));
    Alcotest.test_case "join plus filter" `Quick (fun () ->
        let r =
          run
            "SELECT name FROM people JOIN cities ON people.city_id = cities.id \
             WHERE city = 'berlin'"
        in
        check Alcotest.int "two berliners" 2 (Relation.cardinality r));
    Alcotest.test_case "order by desc limit" `Quick (fun () ->
        let r = run "SELECT name FROM people WHERE age IS NOT NULL ORDER BY age DESC LIMIT 1" in
        check Alcotest.bool "oldest" true ((Relation.row r 0).(0) = Value.Text "cyd"));
    Alcotest.test_case "distinct" `Quick (fun () ->
        check Alcotest.int "cities" 2
          (Relation.cardinality (run "SELECT DISTINCT city_id FROM people")));
    Alcotest.test_case "unknown table" `Quick (fun () ->
        match run "SELECT * FROM nope" with
        | exception Sql_eval.Eval_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "unknown column" `Quick (fun () ->
        match run "SELECT zz FROM people" with
        | exception Sql_eval.Eval_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "ambiguous column" `Quick (fun () ->
        match run "SELECT id FROM people JOIN cities ON people.city_id = cities.id" with
        | exception Sql_eval.Eval_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "or expression" `Quick (fun () ->
        check Alcotest.int "ada or bob" 2
          (Relation.cardinality
             (run "SELECT * FROM people WHERE name = 'ada' OR name = 'bob'")));
    Alcotest.test_case "not expression" `Quick (fun () ->
        check Alcotest.int "not ada" 3
          (Relation.cardinality (run "SELECT * FROM people WHERE NOT name = 'ada'")));
    Alcotest.test_case "parenthesized precedence" `Quick (fun () ->
        check Alcotest.int "and binds tighter" 2
          (Relation.cardinality
             (run
                "SELECT * FROM people WHERE name = 'ada' OR name = 'bob' AND age > 20"));
        check Alcotest.int "parens change it" 1
          (Relation.cardinality
             (run
                "SELECT * FROM people WHERE (name = 'ada' OR name = 'bob') AND age > 30")));
    Alcotest.test_case "in list eval" `Quick (fun () ->
        check Alcotest.int "two" 2
          (Relation.cardinality
             (run "SELECT * FROM people WHERE name IN ('ada', 'cyd')"));
        check Alcotest.int "not in" 2
          (Relation.cardinality
             (run "SELECT * FROM people WHERE name NOT IN ('ada', 'cyd')")));
    Alcotest.test_case "count star" `Quick (fun () ->
        let r = run "SELECT COUNT(*) FROM people" in
        check Alcotest.bool "4" true ((Relation.row r 0).(0) = Value.Int 4));
    Alcotest.test_case "count column skips nulls" `Quick (fun () ->
        let r = run "SELECT COUNT(age) FROM people" in
        check Alcotest.bool "3" true ((Relation.row r 0).(0) = Value.Int 3));
    Alcotest.test_case "sum avg min max" `Quick (fun () ->
        let r = run "SELECT SUM(age), AVG(age), MIN(age), MAX(age) FROM people" in
        let row = Relation.row r 0 in
        check Alcotest.bool "sum" true (row.(0) = Value.Int 105);
        check Alcotest.bool "avg" true (row.(1) = Value.Float 35.0);
        check Alcotest.bool "min" true (row.(2) = Value.Int 28);
        check Alcotest.bool "max" true (row.(3) = Value.Int 41));
    Alcotest.test_case "group by with count" `Quick (fun () ->
        let r =
          run
            "SELECT city_id, COUNT(*) FROM people GROUP BY city_id ORDER BY city_id"
        in
        check Alcotest.int "two groups" 2 (Relation.cardinality r);
        check Alcotest.bool "berlin has 2" true ((Relation.row r 0).(1) = Value.Int 2));
    Alcotest.test_case "non-grouped column rejected" `Quick (fun () ->
        match run "SELECT name, COUNT(*) FROM people GROUP BY city_id" with
        | exception Sql_eval.Eval_error _ -> ()
        | _ -> Alcotest.fail "no error");
    Alcotest.test_case "order by aggregate output" `Quick (fun () ->
        let r =
          run
            "SELECT city_id, COUNT(*) FROM people GROUP BY city_id ORDER BY city_id DESC"
        in
        check Alcotest.bool "paris first" true ((Relation.row r 0).(0) = Value.Int 2));
    Alcotest.test_case "render_result" `Quick (fun () ->
        let s = Sql_eval.render_result (run "SELECT name FROM people LIMIT 1") in
        check Alcotest.bool "has name" true
          (Aladin_text.Strdist.contains ~needle:"ada" s));
  ]

(* reference LIKE implementation: O(n*m) DP over the pattern *)
let like_reference ~pattern s =
  let p = String.lowercase_ascii pattern and s = String.lowercase_ascii s in
  let np = String.length p and ns = String.length s in
  let dp = Array.make_matrix (np + 1) (ns + 1) false in
  dp.(0).(0) <- true;
  for i = 1 to np do
    if p.[i - 1] = '%' then dp.(i).(0) <- dp.(i - 1).(0)
  done;
  for i = 1 to np do
    for j = 1 to ns do
      dp.(i).(j) <-
        (match p.[i - 1] with
        | '%' -> dp.(i - 1).(j) || dp.(i).(j - 1)
        | '_' -> dp.(i - 1).(j - 1)
        | c -> c = s.[j - 1] && dp.(i - 1).(j - 1))
    done
  done;
  dp.(np).(ns)

(* LIKE as a query evaluates it: does a one-row table match? *)
let like_match ~pattern s =
  let t = Relation.create ~name:"t" (Schema.of_names [ "v" ]) in
  Relation.insert t [| Value.Text s |];
  let resolve name = if name = "t" then Some t else None in
  Relation.cardinality
    (Sql_eval.run ~resolve
       (Printf.sprintf "SELECT * FROM t WHERE v LIKE '%s'" pattern))
  = 1

let like_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"like_match agrees with reference DP" ~count:300
         QCheck.(pair
                   (string_gen_of_size (QCheck.Gen.int_range 0 8)
                      (QCheck.Gen.oneofl [ 'a'; 'b'; '%'; '_' ]))
                   (string_gen_of_size (QCheck.Gen.int_range 0 10)
                      (QCheck.Gen.oneofl [ 'a'; 'b'; 'c' ])))
         (fun (pattern, s) ->
           like_match ~pattern s = like_reference ~pattern s));
    Alcotest.test_case "like semantics" `Quick (fun () ->
        check Alcotest.bool "prefix" true (like_match ~pattern:"ab%" "abcdef");
        check Alcotest.bool "suffix" true (like_match ~pattern:"%def" "abcdef");
        check Alcotest.bool "infix" true (like_match ~pattern:"%cd%" "abcdef");
        check Alcotest.bool "underscore" true (like_match ~pattern:"a_c" "abc");
        check Alcotest.bool "exact" true (like_match ~pattern:"abc" "abc");
        check Alcotest.bool "case-insensitive" true (like_match ~pattern:"ABC" "abc");
        check Alcotest.bool "no match" false (like_match ~pattern:"x%" "abc");
        check Alcotest.bool "percent alone" true (like_match ~pattern:"%" "");
        check Alcotest.bool "too short" false (like_match ~pattern:"a_c" "ac"));
  ]

(* warehouse-level fixtures reuse the linkdisc mini-sources *)
let mini_profiles () =
  Aladin_links.Profile_list.of_profiles
    [
      Aladin_discovery.Source_profile.analyze (T_linkdisc.source_a ());
      Aladin_discovery.Source_profile.analyze (T_linkdisc.source_b ());
    ]

let search_tests =
  [
    Alcotest.test_case "build and count" `Quick (fun () ->
        let s = Search.build (mini_profiles ()) in
        check Alcotest.int "six objects" 6
          (List.length
             (List.filter
                (fun acc -> Search.resolve s acc <> None)
                [ "AX001"; "AX002"; "AX003"; "BX901"; "BX902"; "BX903" ])));
    Alcotest.test_case "find by description word" `Quick (fun () ->
        let s = Search.build (mini_profiles ()) in
        let hits = Search.search s "kinase" in
        check Alcotest.bool "nonempty" true (hits <> []);
        check Alcotest.bool "AX001 or BX901 hit" true
          (List.exists
             (fun (h : Search.hit) ->
               h.obj.Aladin_links.Objref.accession = "AX001"
               || h.obj.Aladin_links.Objref.accession = "BX901")
             hits));
    Alcotest.test_case "focused by source" `Quick (fun () ->
        let s = Search.build (mini_profiles ()) in
        let hits = Search.focused s ~source:"src_b" "kinase" in
        check Alcotest.bool "only src_b" true
          (List.for_all
             (fun (h : Search.hit) -> h.obj.Aladin_links.Objref.source = "src_b")
             hits));
    Alcotest.test_case "resolve accession" `Quick (fun () ->
        let s = Search.build (mini_profiles ()) in
        check Alcotest.bool "found" true (Search.resolve s "ax001" <> None);
        check Alcotest.bool "missing" true (Search.resolve s "nope" = None));
  ]

let path_rank_tests =
  let obj s a = Aladin_links.Objref.make ~source:s ~relation:"r" ~accession:a in
  let link a b c =
    Aladin_links.Link.make ~src:a ~dst:b ~kind:Aladin_links.Link.Xref
      ~confidence:c ~evidence:"t"
  in
  [
    Alcotest.test_case "direct link relatedness" `Quick (fun () ->
        let a = obj "s" "A" and b = obj "s" "B" in
        let pr = Link_query.create [ link a b 0.8 ] in
        check (Alcotest.float 0.001) "conf" 0.8 (Path_rank.relatedness pr a b));
    Alcotest.test_case "two-hop decays" `Quick (fun () ->
        let a = obj "s" "A" and b = obj "s" "B" and c = obj "s" "C" in
        let pr = Link_query.create [ link a b 1.0; link b c 1.0 ] in
        check (Alcotest.float 0.001) "decay" 0.5 (Path_rank.relatedness pr a c));
    Alcotest.test_case "parallel paths add up" `Quick (fun () ->
        let a = obj "s" "A" and b = obj "s" "B" and c = obj "s" "C" and d = obj "s" "D" in
        let pr =
          Link_query.create [ link a b 1.0; link b d 1.0; link a c 1.0; link c d 1.0 ]
        in
        check (Alcotest.float 0.001) "two paths" 1.0 (Path_rank.relatedness pr a d));
    Alcotest.test_case "unconnected zero" `Quick (fun () ->
        let a = obj "s" "A" and b = obj "s" "B" in
        let pr = Link_query.create [] in
        check (Alcotest.float 0.001) "zero" 0.0 (Path_rank.relatedness pr a b));
    Alcotest.test_case "rank_from orders" `Quick (fun () ->
        let a = obj "s" "A" and b = obj "s" "B" and c = obj "s" "C" in
        let pr = Link_query.create [ link a b 0.9; link b c 0.9 ] in
        match Path_rank.rank_from pr a with
        | (first, _) :: _ ->
            check Alcotest.string "direct first" "s:B"
              (Aladin_links.Objref.to_string first)
        | [] -> Alcotest.fail "empty");
  ]

(* a browser over the mini-sources integrated into a warehouse *)
let mini_browser () =
  Aladin.Engine.browser
    (Aladin.Engine.integrate [ T_linkdisc.source_a (); T_linkdisc.source_b () ])

let browser_tests =
  [
    Alcotest.test_case "view fields" `Quick (fun () ->
        let b = mini_browser () in
        match Browser.view_accession b ~source:"src_a" "AX001" with
        | None -> Alcotest.fail "no view"
        | Some v ->
            check Alcotest.bool "accession field" true
              (List.mem ("accession", "AX001") v.fields));
    Alcotest.test_case "annotations present" `Quick (fun () ->
        let b = mini_browser () in
        match Browser.view_accession b ~source:"src_a" "AX001" with
        | None -> Alcotest.fail "no view"
        | Some v ->
            check Alcotest.bool "dbxref annotation" true
              (List.exists (fun (a : Browser.annotation) -> a.relation = "dbxref") v.annotations));
    Alcotest.test_case "links attached" `Quick (fun () ->
        let b = mini_browser () in
        match Browser.view_accession b ~source:"src_a" "AX001" with
        | None -> Alcotest.fail "no view"
        | Some v -> check Alcotest.bool "linked" true (v.linked <> []));
    Alcotest.test_case "follow link" `Quick (fun () ->
        let b = mini_browser () in
        match Browser.view_accession b ~source:"src_a" "AX001" with
        | None -> Alcotest.fail "no view"
        | Some v -> (
            match Browser.follow b v 0 with
            | Some v2 ->
                check Alcotest.bool "landed elsewhere" true
                  (v2.obj.Aladin_links.Objref.accession <> "AX001")
            | None -> Alcotest.fail "follow failed"));
    Alcotest.test_case "unknown object none" `Quick (fun () ->
        let b = mini_browser () in
        check Alcotest.bool "none" true
          (Browser.view_accession b ~source:"src_a" "ZZZ" = None));
    Alcotest.test_case "render mentions accession" `Quick (fun () ->
        let b = mini_browser () in
        match Browser.view_accession b ~source:"src_a" "AX001" with
        | None -> Alcotest.fail "no view"
        | Some v ->
            check Alcotest.bool "rendered" true
              (Aladin_text.Strdist.contains ~needle:"AX001" (Browser.render v)));
    Alcotest.test_case "objects enumerates all" `Quick (fun () ->
        let b = mini_browser () in
        check Alcotest.int "six" 6 (List.length (Browser.objects b)));
    Alcotest.test_case "siblings window" `Quick (fun () ->
        let b = mini_browser () in
        match Browser.view_accession b ~source:"src_a" "AX002" with
        | None -> Alcotest.fail "no view"
        | Some v -> check Alcotest.int "two neighbours" 2 (List.length v.siblings));
    (* links over a few objects, so most objects carry several links and
       some link to themselves *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"links_of index equals the repository scan"
         ~count:200
         QCheck.(
           list_of_size (Gen.int_range 0 40)
             (quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 9)))
         (fun specs ->
           let module L = Aladin_links in
           let obj i =
             L.Objref.make
               ~source:(if i mod 2 = 0 then "a" else "b")
               ~relation:"r"
               ~accession:(Printf.sprintf "X%d" (i / 2))
           in
           let kinds =
             [| L.Link.Xref; L.Link.Seq_similarity; L.Link.Text_similarity;
                L.Link.Shared_term; L.Link.Entity_mention; L.Link.Duplicate |]
           in
           let links =
             List.map
               (fun (s, d, k, c) ->
                 L.Link.make ~src:(obj s) ~dst:(obj d) ~kind:kinds.(k)
                   ~confidence:(float_of_int c /. 10.)
                   ~evidence:(Printf.sprintf "e%d" c))
               specs
           in
           let b =
             Browser.create L.Profile_list.empty (Link_query.create links) []
           in
           (* the scan the index replaces: every link with [o] on an end *)
           let scan o =
             List.filter
               (fun (l : L.Link.t) ->
                 L.Objref.equal l.src o || L.Objref.equal l.dst o)
               links
           in
           List.for_all
             (fun o -> Browser.links_of b o = scan o)
             (obj 6
             :: List.concat_map (fun (l : L.Link.t) -> [ l.src; l.dst ]) links)));
  ]

(* The browser's view as it was computed before the row index: the
   primary row by [Relation.find_row], the annotations by a scan of every
   row of every secondary relation against its owners, the siblings by a
   walk of the accession list, the links by a scan of the link list and
   the conflicts by the per-pair reference of [Conflict.between]. Kept
   as the reference the indexed view must equal. *)
module Ref_view = struct
  module L = Aladin_links
  module D = Aladin_discovery
  module Dup = Aladin_dup

  let primary_row_fields (e : L.Profile_list.entry) (obj : L.Objref.t) =
    let catalog = D.Profile.catalog e.sp.profile in
    match D.Source_profile.primary_accession e.sp with
    | None -> None
    | Some (prel, pattr) ->
        let rel = Catalog.find_exn catalog prel in
        Relation.find_row rel pattr (Value.text obj.accession)
        |> Option.map (fun row ->
               List.mapi
                 (fun i attr -> (attr, Value.to_string row.(i)))
                 (Schema.names (Relation.schema rel)))

  let annotations_of (e : L.Profile_list.entry) (obj : L.Objref.t) =
    let catalog = D.Profile.catalog e.sp.profile in
    match e.sp.secondary with
    | None -> []
    | Some sec ->
        List.concat_map
          (fun (entry : D.Secondary.entry) ->
            let rel = Catalog.find_exn catalog entry.relation in
            let attrs = Schema.names (Relation.schema rel) in
            let rows = ref [] in
            Relation.iteri_rows
              (fun row_i row ->
                let owners =
                  (L.Owner_map.row_owners e.owner ~relation:entry.relation).(row_i)
                in
                if List.mem obj.accession owners then
                  rows :=
                    {
                      Browser.relation = entry.relation;
                      fields =
                        List.mapi (fun i a -> (a, Value.to_string row.(i))) attrs;
                    }
                    :: !rows)
              rel;
            List.rev !rows)
          sec.entries

  let siblings_of (e : L.Profile_list.entry) (obj : L.Objref.t) =
    let accs = L.Owner_map.primary_accessions e.owner in
    let rec find_window prev = function
      | [] -> []
      | acc :: rest when acc = obj.accession ->
          let nexts = List.filteri (fun i _ -> i < 2) rest in
          (match prev with Some p -> [ p ] | None -> []) @ nexts
      | acc :: rest -> find_window (Some acc) rest
    in
    find_window None accs
    |> List.filter_map (fun accession -> L.Owner_map.objref e.owner ~accession)

  let in_duplicates reprs links =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (r : Dup.Object_sim.repr) ->
        Hashtbl.replace tbl (L.Objref.to_string r.obj) r)
      reprs;
    List.concat_map
      (fun (l : L.Link.t) ->
        if l.kind <> L.Link.Duplicate then []
        else
          match
            ( Hashtbl.find_opt tbl (L.Objref.to_string l.src),
              Hashtbl.find_opt tbl (L.Objref.to_string l.dst) )
          with
          | Some a, Some b -> T_dupdetect.Ref_conflict.between a b
          | (Some _ | None), _ -> [])
      links

  let view profiles links reprs (obj : L.Objref.t) : Browser.view option =
    match L.Profile_list.find profiles obj.source with
    | None -> None
    | Some e -> (
        match primary_row_fields e obj with
        | None -> None
        | Some fields ->
            let all_links =
              List.filter
                (fun (l : L.Link.t) ->
                  L.Objref.equal l.src obj || L.Objref.equal l.dst obj)
                links
            in
            let other (l : L.Link.t) =
              if L.Objref.equal l.src obj then l.dst else l.src
            in
            Some
              {
                obj;
                fields;
                annotations = annotations_of e obj;
                siblings = siblings_of e obj;
                duplicates =
                  List.filter_map
                    (fun (l : L.Link.t) ->
                      if l.kind = L.Link.Duplicate then Some (other l, l.confidence)
                      else None)
                    all_links;
                conflicts = in_duplicates reprs all_links;
                linked =
                  List.filter (fun (l : L.Link.t) -> l.kind <> L.Link.Duplicate) all_links
                  |> List.sort (fun (a : L.Link.t) (b : L.Link.t) ->
                         Float.compare b.confidence a.confidence);
              })
end

(* A source with what the row index must get right: a Keyword row that
   two entries own (HX001 and HX002 through [entry.kw_id]), an entry that
   owns no row (HX004: no keyword and no cross-reference), several rows
   of one relation owned by one entry, and the Keyword relation's
   secondary entry named KEYWORD, in another case than the catalog's. *)
let hand_source () =
  let cat = Catalog.create ~name:"src_h" in
  let entry =
    Catalog.create_relation cat ~name:"entry"
      (Schema.of_names [ "entry_id"; "accession"; "descr"; "kw_id" ])
  in
  List.iteri
    (fun i (acc, d, kw) ->
      Relation.insert entry [| Value.Int (i + 1); Value.text acc; Value.text d; kw |])
    [ ("HX001", "alpha kinase protein involved in DNA repair pathways", Value.Int 10);
      ("HX002", "beta transporter protein briefly", Value.Int 10);
      ("HX003", "gamma receptor protein binding extracellular calcium", Value.Int 11);
      ("HX004", "delta", Value.Null) ];
  let kw =
    Catalog.create_relation cat ~name:"Keyword" (Schema.of_names [ "kw_id"; "label" ])
  in
  List.iter
    (fun (id, l) -> Relation.insert kw [| Value.Int id; Value.text l |])
    [ (10, "kinase"); (11, "receptor"); (12, "unused") ];
  let dbx =
    Catalog.create_relation cat ~name:"dbxref"
      (Schema.of_names [ "dbxref_id"; "entry_id"; "target" ])
  in
  List.iteri
    (fun i (eid, t) -> Relation.insert dbx [| Value.Int (i + 1); Value.Int eid; Value.text t |])
    [ (1, "BX901"); (3, "BX903"); (1, "BX902") ];
  let sp = Aladin_discovery.Source_profile.analyze cat in
  let upcase_keyword (e : Aladin_discovery.Secondary.entry) =
    if String.lowercase_ascii e.relation = "keyword" then
      { e with relation = "KEYWORD" }
    else e
  in
  {
    sp with
    secondary =
      Option.map
        (fun (sec : Aladin_discovery.Secondary.t) ->
          { sec with entries = List.map upcase_keyword sec.entries })
        sp.secondary;
  }

let view_reference_tests =
  let module L = Aladin_links in
  (* every object's view, and views of an unknown accession, an unknown
     source and an object named under another relation *)
  let views_equal browser profiles links reprs =
    let objs = Browser.objects browser in
    let probes =
      match objs with
      | (o : L.Objref.t) :: _ ->
          [ { o with accession = "NOPE0" }; { o with source = "nope" };
            { o with relation = "other" } ]
      | [] -> []
    in
    List.iter
      (fun o ->
        if Browser.view browser o <> Ref_view.view profiles links reprs o then
          Alcotest.failf "view of %s differs from the reference"
            (L.Objref.to_string o))
      (objs @ probes);
    objs
  in
  [
    Alcotest.test_case "views equal the scanning reference on the small corpus"
      `Quick (fun () ->
        let w = Lazy.force T_core.warehouse in
        let eng = Aladin.Engine.create w in
        let objs =
          views_equal (Aladin.Engine.browser eng) (Aladin.Warehouse.profiles w)
            (Aladin.Warehouse.links w) (Aladin.Warehouse.dup_reprs w)
        in
        let some what f =
          check Alcotest.bool ("some views have " ^ what) true
            (List.exists
               (fun o ->
                 match Aladin.Engine.view eng o with Some v -> f v | None -> false)
               objs)
        in
        some "annotations" (fun v -> v.annotations <> []);
        some "conflicts" (fun v -> v.conflicts <> []));
    Alcotest.test_case "views equal the scanning reference on a hand-built source"
      `Quick (fun () ->
        let profiles = L.Profile_list.of_profiles [ hand_source () ] in
        let reprs = Aladin_dup.Object_sim.build_reprs profiles in
        let obj acc = L.Objref.make ~source:"src_h" ~relation:"entry" ~accession:acc in
        let links =
          [ L.Link.make ~src:(obj "HX001") ~dst:(obj "HX002") ~kind:L.Link.Duplicate
              ~confidence:0.9 ~evidence:"d";
            L.Link.make ~src:(obj "HX003") ~dst:(obj "HX001") ~kind:L.Link.Xref
              ~confidence:0.7 ~evidence:"x" ]
        in
        let b = Browser.create profiles (Link_query.create links) reprs in
        ignore (views_equal b profiles links reprs);
        let view acc =
          match Browser.view b (obj acc) with
          | Some v -> v
          | None -> Alcotest.failf "no view of %s" acc
        in
        let keyword acc =
          List.filter
            (fun (a : Browser.annotation) -> a.relation = "KEYWORD")
            (view acc).annotations
        in
        (* the fixture has what it claims *)
        check Alcotest.bool "HX001 and HX002 share their keyword row" true
          (keyword "HX001" <> [] && keyword "HX001" = keyword "HX002");
        check Alcotest.int "HX004 owns no row" 0
          (List.length (view "HX004").annotations);
        check Alcotest.int "HX001 owns two dbxref rows" 2
          (List.length
             (List.filter
                (fun (a : Browser.annotation) -> a.relation = "dbxref")
                (view "HX001").annotations)));
  ]

(* The three per-object adjacencies the one link index replaced, kept
   as references: the browser's (each object's links in list order, a
   self-link once) and the identical ones of traversal and path ranking
   ((other end, link) pairs, last link first, a self-link twice), with
   the traversal and ranking walks that read them. *)
module Ref_adjacency = struct
  module L = Aladin_links

  let find tbl obj = Option.value (Hashtbl.find_opt tbl obj) ~default:[]

  let browser_links links =
    let tbl = Hashtbl.create 16 in
    let add obj l = Hashtbl.replace tbl obj (l :: find tbl obj) in
    List.iter
      (fun (l : L.Link.t) ->
        add l.src l;
        if not (L.Objref.equal l.src l.dst) then add l.dst l)
      (List.rev links);
    find tbl

  let neighbors links =
    let tbl = Hashtbl.create 16 in
    let add obj entry = Hashtbl.replace tbl obj (entry :: find tbl obj) in
    List.iter
      (fun (l : L.Link.t) ->
        add l.src (l.dst, l);
        add l.dst (l.src, l))
      links;
    find tbl

  let admits (stp : Link_query.step) (next : L.Objref.t) (l : L.Link.t) =
    (stp.kinds = [] || List.mem l.kind stp.kinds)
    && (match stp.target_source with Some s -> next.source = s | None -> true)
    && l.confidence >= stp.min_confidence

  let run neighbors ~start ~steps =
    let expand stp partials =
      List.concat_map
        (fun (here, rev_path, visited, score, origin) ->
          neighbors here
          |> List.filter_map (fun (next, (l : L.Link.t)) ->
                 if admits stp next l && not (List.exists (L.Objref.equal next) visited)
                 then
                   Some (next, l :: rev_path, next :: visited, score *. l.confidence, origin)
                 else None))
        partials
    in
    let finals =
      List.fold_left
        (fun ps stp -> expand stp ps)
        (List.map (fun o -> (o, [], [ o ], 1.0, o)) start)
        steps
    in
    let best = Hashtbl.create 64 in
    List.iter
      (fun (here, rev_path, _, score, origin) ->
        let key = L.Objref.to_string origin ^ "\x00" ^ L.Objref.to_string here in
        let hit =
          { Link_query.endpoint = here; path = List.rev rev_path; score; start = origin }
        in
        match Hashtbl.find_opt best key with
        | Some (existing : Link_query.hit) when existing.score >= hit.score -> ()
        | Some _ | None -> Hashtbl.replace best key hit)
      finals;
    Hashtbl.fold (fun _ h acc -> h :: acc) best []
    |> List.sort (fun (a : Link_query.hit) (b : Link_query.hit) ->
           match Float.compare b.score a.score with
           | 0 -> (
               match L.Objref.compare a.start b.start with
               | 0 -> L.Objref.compare a.endpoint b.endpoint
               | c -> c)
           | c -> c)

  (* paths of up to 3 links, each further link discounted by half *)
  let explore neighbors start =
    let sink = Hashtbl.create 64 in
    let rec dfs node visited weight depth =
      if depth < 3 then
        List.iter
          (fun (next, (l : L.Link.t)) ->
            if not (List.exists (L.Objref.equal next) visited) then begin
              let w = weight *. l.confidence *. (0.5 ** float_of_int depth) in
              (match Hashtbl.find_opt sink next with
              | Some r -> r := !r +. w
              | None -> Hashtbl.add sink next (ref w));
              dfs next (next :: visited) (weight *. l.confidence) (depth + 1)
            end)
          (neighbors node)
    in
    dfs start [ start ] 1.0 0;
    sink

  let rank_from neighbors start =
    Hashtbl.fold (fun o r acc -> (o, !r) :: acc) (explore neighbors start) []
    |> List.sort (fun (oa, a) (ob, b) ->
           match Float.compare b a with 0 -> L.Objref.compare oa ob | c -> c)

  let relatedness neighbors a b =
    match Hashtbl.find_opt (explore neighbors a) b with
    | Some r -> !r
    | None -> 0.0
end

let one_index_seed = 20261018

(* random link lists over six objects in two sources: repeated endpoint
   pairs, tied confidences (four values) and self-links are common *)
let one_index_test =
  let module L = Aladin_links in
  let obj i =
    L.Objref.make
      ~source:(if i mod 2 = 0 then "a" else "b")
      ~relation:"r"
      ~accession:(Printf.sprintf "X%d" (i / 2))
  in
  let kinds = [| L.Link.Xref; L.Link.Seq_similarity; L.Link.Duplicate |] in
  let confidences = [| 0.5; 0.7; 0.9; 1.0 |] in
  let steps =
    let s = Link_query.step in
    [ []; [ s () ]; [ s (); s () ]; [ s (); s (); s () ];
      [ s ~kinds:[ L.Link.Xref; L.Link.Duplicate ] (); s ~min_confidence:0.7 () ];
      [ s ~target_source:"a" (); s (); s ~target_source:"b" () ] ]
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| one_index_seed |])
    (QCheck.Test.make ~name:"one link index equals the three it replaced"
       ~count:200
       QCheck.(
         list_of_size (Gen.int_range 0 24)
           (quad (int_bound 5) (int_bound 5) (int_bound 2) (int_bound 3)))
       (fun specs ->
         let links =
           List.map
             (fun (s, d, k, c) ->
               L.Link.make ~src:(obj s) ~dst:(obj d) ~kind:kinds.(k)
                 ~confidence:confidences.(c) ~evidence:(Printf.sprintf "e%d" c))
             specs
         in
         let index = Link_query.create links in
         let browser = Browser.create L.Profile_list.empty index [] in
         let ref_links = Ref_adjacency.browser_links links in
         let ref_neighbors = Ref_adjacency.neighbors links in
         let objs = List.init 7 obj (* obj 6 has no link *) in
         List.for_all (fun o -> Browser.links_of browser o = ref_links o) objs
         && List.for_all
              (fun steps ->
                List.for_all
                  (fun start ->
                    Link_query.run index ~start ~steps
                    = Ref_adjacency.run ref_neighbors ~start ~steps)
                  (objs :: List.map (fun o -> [ o ]) objs))
              steps
         && List.for_all
              (fun a ->
                Path_rank.rank_from index a = Ref_adjacency.rank_from ref_neighbors a
                && List.for_all
                     (fun b ->
                       Path_rank.relatedness index a b
                       = Ref_adjacency.relatedness ref_neighbors a b)
                     objs)
              objs))

let link_query_tests =
  let obj s a = Aladin_links.Objref.make ~source:s ~relation:"r" ~accession:a in
  let link ?(kind = Aladin_links.Link.Xref) ?(conf = 0.9) a b =
    Aladin_links.Link.make ~src:a ~dst:b ~kind ~confidence:conf ~evidence:"t"
  in
  let gene = obj "genes" "G1" in
  let prot = obj "prots" "P1" in
  let disease = obj "dis" "D1" in
  let term = obj "onto" "T1" in
  let graph () =
    Link_query.create
      [ link gene prot; link prot disease;
        link ~kind:Aladin_links.Link.Shared_term ~conf:0.5 prot term ]
  in
  [
    Alcotest.test_case "two-hop traversal" `Quick (fun () ->
        let hits =
          Link_query.run (graph ()) ~start:[ gene ]
            ~steps:[ Link_query.step (); Link_query.step ~target_source:"dis" () ]
        in
        match hits with
        | [ h ] ->
            check Alcotest.string "endpoint" "dis:D1"
              (Aladin_links.Objref.to_string h.endpoint);
            check Alcotest.int "path length" 2 (List.length h.path);
            check (Alcotest.float 0.001) "score" (0.9 *. 0.9) h.score
        | hs -> Alcotest.fail (Printf.sprintf "%d hits" (List.length hs)));
    Alcotest.test_case "kind filter" `Quick (fun () ->
        let hits =
          Link_query.run (graph ()) ~start:[ prot ]
            ~steps:[ Link_query.step ~kinds:[ Aladin_links.Link.Shared_term ] () ]
        in
        check Alcotest.int "only term" 1 (List.length hits));
    Alcotest.test_case "confidence filter" `Quick (fun () ->
        let hits =
          Link_query.run (graph ()) ~start:[ prot ]
            ~steps:[ Link_query.step ~min_confidence:0.8 () ]
        in
        check Alcotest.int "two strong" 2 (List.length hits));
    Alcotest.test_case "no revisit" `Quick (fun () ->
        (* gene -> prot -> back to gene is forbidden *)
        let hits =
          Link_query.run (graph ()) ~start:[ gene ]
            ~steps:[ Link_query.step (); Link_query.step ~target_source:"genes" () ]
        in
        check Alcotest.int "none" 0 (List.length hits));
    Alcotest.test_case "empty steps echo start" `Quick (fun () ->
        let hits = Link_query.run (graph ()) ~start:[ gene ] ~steps:[] in
        check Alcotest.int "one" 1 (List.length hits));
    Alcotest.test_case "best witness kept" `Quick (fun () ->
        let a = obj "s" "A" and b = obj "s" "B" in
        let g = Link_query.create [ link ~conf:0.2 a b; link ~conf:0.9 a b ] in
        match Link_query.run g ~start:[ a ] ~steps:[ Link_query.step () ] with
        | [ h ] -> check (Alcotest.float 0.001) "0.9 wins" 0.9 h.score
        | hs -> Alcotest.fail (Printf.sprintf "%d hits" (List.length hs)));
    Alcotest.test_case "reachable_count" `Quick (fun () ->
        check Alcotest.int "prot degree" 3
          (List.length (Link_query.links_of (graph ()) prot)));
    one_index_test;
  ]

(* a one-table source: entry(entry_id, accession, descr) *)
let entry_source ~name rows =
  let cat = Catalog.create ~name in
  let e =
    Catalog.create_relation cat ~name:"entry"
      (Schema.of_names [ "entry_id"; "accession"; "descr" ])
  in
  List.iteri
    (fun i (acc, d) ->
      Relation.insert e [| Value.Int (i + 1); Value.text acc; Value.text d |])
    rows;
  cat

(* the static site of a browser, written to a fresh directory *)
let site_of b =
  let dir = Tmp.path "site" in
  ignore (Html_export.write_site b ~dir);
  dir

let site_of_sources catalogs =
  let profiles =
    Aladin_links.Profile_list.of_profiles
      (List.map Aladin_discovery.Source_profile.analyze catalogs)
  in
  site_of (Browser.create profiles (Link_query.create []) [])

(* the page of the object with this accession *)
let page_of dir accession =
  match
    List.find_opt
      (fun f -> Aladin_text.Strdist.contains ~needle:("__" ^ accession ^ ".html") f)
      (Array.to_list (Sys.readdir dir))
  with
  | Some f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
  | None -> Alcotest.failf "no page for %s in %s" accession dir

(* how the page of AX001 shows a descr value: the text between the
   marker the value starts with and the end of its table cell *)
let shown_descr value =
  let page =
    page_of
      (site_of_sources
         [ entry_source ~name:"src"
             [ ("AX001", "QQSTART" ^ value);
               ("AX002", "beta transporter protein briefly");
               ("AX003", "gamma receptor protein binding extracellular calcium ligands here") ] ])
      "AX001"
  in
  let find needle from =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length page then Alcotest.failf "%S not in the page" needle
      else if String.sub page i n = needle then i
      else go (i + 1)
    in
    go from
  in
  let start = find "QQSTART" 0 + String.length "QQSTART" in
  String.sub page start (find "</td>" start - start)

let html_tests =
  [
    Alcotest.test_case "escape" `Quick (fun () ->
        check Alcotest.string "escaped" "a&amp;b &lt;c&gt; &quot;d&quot;"
          (shown_descr "a&b <c> \"d\""));
    Alcotest.test_case "filename sanitized" `Quick (fun () ->
        let dir =
          site_of_sources
            [ entry_source ~name:"s/1"
                [ ("GO:0001", "alpha kinase protein involved in DNA repair pathways");
                  ("GO:0002", "beta transporter protein briefly");
                  ("GO:0003", "gamma receptor protein binding extracellular calcium") ] ]
        in
        let files = Array.to_list (Sys.readdir dir) in
        check Alcotest.int "index and three pages" 4 (List.length files);
        List.iter
          (fun f ->
            check Alcotest.bool (f ^ " is a file") false
              (Sys.is_directory (Filename.concat dir f));
            check Alcotest.bool "no colon" true (not (String.contains f ':')))
          files);
    Alcotest.test_case "object page wellformed-ish" `Quick (fun () ->
        let html = page_of (site_of (mini_browser ())) "AX001" in
        check Alcotest.bool "has title" true
          (Aladin_text.Strdist.contains ~needle:"AX001" html);
        check Alcotest.bool "closes body" true
          (Aladin_text.Strdist.contains ~needle:"</body>" html));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"escape_html leaves no raw specials" ~count:200
         QCheck.string
         (fun s ->
           (* a page clips a value at 300 bytes before escaping it *)
           let e = shown_descr (String.sub s 0 (min 290 (String.length s))) in
           not (String.exists (fun c -> c = '<' || c = '>') e)
           (* every & in the output must start an entity *)
           && (let ok = ref true in
               String.iteri
                 (fun i c ->
                   if c = '&' then
                     let rest = String.sub e i (min 6 (String.length e - i)) in
                     if
                       not
                         (List.exists
                            (fun ent ->
                              String.length rest >= String.length ent
                              && String.sub rest 0 (String.length ent) = ent)
                            [ "&amp;"; "&lt;"; "&gt;"; "&quot;" ])
                     then ok := false)
                 e;
               !ok)));
    Alcotest.test_case "write_site" `Quick (fun () ->
        let profiles = mini_profiles () in
        let b = Browser.create profiles (Link_query.create []) [] in
        let dir = Tmp.path "site" in
        let n = Html_export.write_site b ~dir in
        check Alcotest.int "six pages" 6 n;
        check Alcotest.bool "index exists" true
          (Sys.file_exists (Filename.concat dir "index.html")));
  ]

let tests =
  [
    ("access.sql_lexer", lexer_tests);
    ("access.sql_parser", parser_tests);
    ("access.sql_eval", eval_tests);
    ("access.like", like_tests);
    ("access.search", search_tests);
    ("access.path_rank", path_rank_tests);
    ("access.browser", browser_tests @ view_reference_tests);
    ("access.link_query", link_query_tests);
    ("access.html_export", html_tests);
  ]

let link_export_tests =
  let obj s acc = Aladin_links.Objref.make ~source:s ~relation:"r" ~accession:acc in
  let link k c a b =
    Aladin_links.Link.make ~src:a ~dst:b ~kind:k ~confidence:c ~evidence:"ev,1"
  in
  let sample =
    [ link Aladin_links.Link.Xref 0.9 (obj "a" "A1") (obj "b" "B1");
      link Aladin_links.Link.Duplicate 0.8 (obj "a" "A1") (obj "b" "B2") ]
  in
  [
    Alcotest.test_case "csv header and quoting" `Quick (fun () ->
        let csv = Link_export.to_csv sample in
        match Aladin_relational.Csv.read_string csv with
        | header :: rows ->
            check Alcotest.int "7 columns" 7 (List.length header);
            check Alcotest.int "2 rows" 2 (List.length rows);
            check Alcotest.bool "evidence with comma survives" true
              (List.for_all (fun r -> List.length r = 7) rows)
        | [] -> Alcotest.fail "empty csv");
    Alcotest.test_case "dot structure" `Quick (fun () ->
        let dot = Link_export.to_dot sample in
        let contains needle = Aladin_text.Strdist.contains ~needle dot in
        check Alcotest.bool "graph" true (contains "graph aladin");
        check Alcotest.bool "clusters" true (contains "subgraph cluster_");
        check Alcotest.bool "edge" true (contains "--");
        check Alcotest.bool "bold duplicate" true (contains "style=bold"));
    Alcotest.test_case "max_links caps edges" `Quick (fun () ->
        let many =
          List.init 520 (fun i ->
              link Aladin_links.Link.Xref (0.5 +. (0.0001 *. float_of_int i))
                (obj "a" (Printf.sprintf "A%d" i))
                (obj "b" (Printf.sprintf "B%d" i)))
        in
        let edges =
          String.split_on_char '\n' (Link_export.to_dot many)
          |> List.filter (fun l -> Aladin_text.Strdist.contains ~needle:" -- " l)
        in
        check Alcotest.int "500 edges" 500 (List.length edges);
        (* the most confident are kept: A19 has the 20 lowest below it *)
        check Alcotest.bool "least confident dropped" false
          (List.exists (Aladin_text.Strdist.contains ~needle:"A19\"") edges));
  ]

let tests = tests @ [ ("access.link_export", link_export_tests) ]
