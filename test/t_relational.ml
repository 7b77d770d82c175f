open Aladin_relational

let check = Alcotest.check

(* ---- Vec ---- *)

let of_list xs =
  let v = Vec.create () in
  List.iter (Vec.push v) xs;
  v

let vec_tests =
  [
    Alcotest.test_case "push-get-length" `Quick (fun () ->
        let v = Vec.create () in
        for i = 0 to 99 do
          Vec.push v i
        done;
        check Alcotest.int "length" 100 (Vec.length v);
        check Alcotest.int "get 0" 0 (Vec.get v 0);
        check Alcotest.int "get 99" 99 (Vec.get v 99));
    Alcotest.test_case "empty" `Quick (fun () ->
        let v : int Vec.t = Vec.create () in
        check Alcotest.int "length" 0 (Vec.length v);
        check Alcotest.(list int) "to_list" [] (Vec.to_list v);
        check Alcotest.(option int) "find" None (Vec.find_opt (fun _ -> true) v));
    Alcotest.test_case "out-of-bounds raises" `Quick (fun () ->
        let v = of_list [ 1 ] in
        Alcotest.check_raises "get" (Invalid_argument "Vec: index 1 out of bounds (length 1)")
          (fun () -> ignore (Vec.get v 1)));
    Alcotest.test_case "exists-forall-find" `Quick (fun () ->
        let v = of_list [ 1; 3; 5 ] in
        check Alcotest.(option int) "find" (Some 3) (Vec.find_opt (fun x -> x > 2) v);
        check Alcotest.(option int) "none" None (Vec.find_opt (fun x -> x > 5) v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_list/to_list roundtrip" ~count:100
         QCheck.(list int)
         (fun xs -> Vec.to_list (of_list xs) = xs));
  ]

(* ---- Value ---- *)

let value_tests =
  [
    Alcotest.test_case "of_string inference" `Quick (fun () ->
        check Alcotest.bool "int" true (Value.of_string "42" = Value.Int 42);
        check Alcotest.bool "neg int" true (Value.of_string "-7" = Value.Int (-7));
        check Alcotest.bool "float" true (Value.of_string "3.5" = Value.Float 3.5);
        check Alcotest.bool "text" true (Value.of_string "P12345" = Value.Text "P12345");
        check Alcotest.bool "empty null" true (Value.of_string "" = Value.Null);
        check Alcotest.bool "backslash-N null" true (Value.of_string "\\N" = Value.Null));
    Alcotest.test_case "text never infers" `Quick (fun () ->
        check Alcotest.bool "kept text" true (Value.text "1234" = Value.Text "1234"));
    Alcotest.test_case "compare order" `Quick (fun () ->
        check Alcotest.bool "null first" true (Value.compare Value.Null (Value.Int 0) < 0);
        check Alcotest.bool "num before text" true
          (Value.compare (Value.Int 5) (Value.Text "a") < 0);
        check Alcotest.bool "int vs float" true
          (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
        check Alcotest.bool "int float equal" true
          (Value.compare (Value.Int 2) (Value.Float 2.0) = 0));
    Alcotest.test_case "contains_alpha" `Quick (fun () ->
        check Alcotest.bool "P123" true (Value.contains_alpha (Value.Text "P123"));
        check Alcotest.bool "123" false (Value.contains_alpha (Value.Text "123"));
        check Alcotest.bool "int" false (Value.contains_alpha (Value.Int 9)));
    Alcotest.test_case "to_string and length" `Quick (fun () ->
        check Alcotest.string "null" "" (Value.to_string Value.Null);
        check Alcotest.string "int" "42" (Value.to_string (Value.Int 42));
        check Alcotest.int "len" 5 (Value.length (Value.Text "abcde")));
    Alcotest.test_case "hash consistent with equal" `Quick (fun () ->
        check Alcotest.int "text hash" (Value.hash (Value.Text "x"))
          (Value.hash (Value.Text "x"));
        check Alcotest.int "int/float hash" (Value.hash (Value.Int 3))
          (Value.hash (Value.Float 3.0)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compare reflexive" ~count:200
         QCheck.(oneof [ map (fun i -> Value.Int i) int;
                         map (fun s -> Value.Text s) string ])
         (fun v -> Value.compare v v = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compare antisymmetric" ~count:200
         QCheck.(pair int int)
         (fun (a, b) ->
           let va = Value.Int a and vb = Value.Int b in
           Value.compare va vb = -Value.compare vb va));
  ]

(* ---- Schema ---- *)

let schema_tests =
  [
    Alcotest.test_case "index case-insensitive" `Quick (fun () ->
        let s = Schema.of_names [ "Accession"; "Name" ] in
        check Alcotest.(option int) "lower" (Some 0) (Schema.index_of s "accession");
        check Alcotest.(option int) "upper" (Some 1) (Schema.index_of s "NAME");
        check Alcotest.(option int) "missing" None (Schema.index_of s "nope"));
    Alcotest.test_case "duplicate raises" `Quick (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Schema.make: duplicate attribute \"A\"") (fun () ->
            ignore (Schema.of_names [ "a"; "A" ])));
    Alcotest.test_case "rename and concat" `Quick (fun () ->
        (* a query names each column after its table and a join
           concatenates the two schemas *)
        let rel name =
          let r = Relation.create ~name (Schema.of_names [ "a"; "b" ]) in
          Relation.insert r [| Value.Int 1; Value.Int 2 |];
          r
        in
        let t = rel "t" and u = rel "u" in
        let resolve = function "t" -> Some t | "u" -> Some u | _ -> None in
        let names sql = Schema.names (Relation.schema (Aladin_access.Sql_eval.run ~resolve sql)) in
        check Alcotest.(list string) "renamed" [ "t.a"; "t.b" ] (names "SELECT * FROM t");
        check Alcotest.int "concat arity" 4
          (List.length (names "SELECT * FROM t JOIN u ON t.a = u.a")));
  ]

(* ---- Relation ---- *)

let sample_relation () =
  let r = Relation.create ~name:"t" (Schema.of_names [ "id"; "acc"; "v" ]) in
  Relation.insert r [| Value.Int 1; Value.text "A1"; Value.Int 10 |];
  Relation.insert r [| Value.Int 2; Value.text "B2"; Value.Int 10 |];
  Relation.insert r [| Value.Int 3; Value.text "C3"; Value.Null |];
  r

let stats_of r attr =
  List.find (fun (c : Col_stats.t) -> c.attribute = attr) (Col_stats.of_relation r)

let relation_tests =
  [
    Alcotest.test_case "cardinality and column" `Quick (fun () ->
        let r = sample_relation () in
        check Alcotest.int "card" 3 (Relation.cardinality r);
        check Alcotest.int "col len" 3 (Array.length (Relation.column r "acc")));
    Alcotest.test_case "arity mismatch raises" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.check_raises "arity"
          (Invalid_argument "Relation.insert: row arity 1 <> schema arity 3 in t")
          (fun () -> Relation.insert r [| Value.Int 9 |]));
    Alcotest.test_case "is_unique" `Quick (fun () ->
        let r = sample_relation () in
        check Alcotest.bool "acc unique" true (stats_of r "acc").all_unique;
        check Alcotest.bool "v not (dups)" false (stats_of r "v").all_unique);
    Alcotest.test_case "unique ignores nulls" `Quick (fun () ->
        let r = Relation.create ~name:"u" (Schema.of_names [ "a" ]) in
        Relation.insert r [| Value.Null |];
        Relation.insert r [| Value.Int 1 |];
        Relation.insert r [| Value.Null |];
        check Alcotest.bool "unique" true (stats_of r "a").all_unique);
    Alcotest.test_case "empty column not unique" `Quick (fun () ->
        let r = Relation.create ~name:"e" (Schema.of_names [ "a" ]) in
        check Alcotest.bool "not unique" false (stats_of r "a").all_unique);
    Alcotest.test_case "distinct skips nulls" `Quick (fun () ->
        let r = sample_relation () in
        check Alcotest.int "distinct v" 1 (stats_of r "v").distinct);
    Alcotest.test_case "find_row" `Quick (fun () ->
        let r = sample_relation () in
        (match Relation.find_row r "acc" (Value.text "B2") with
        | Some row -> check Alcotest.bool "row id" true (row.(0) = Value.Int 2)
        | None -> Alcotest.fail "not found");
        check Alcotest.bool "missing none" true
          (Relation.find_row r "acc" (Value.text "ZZ") = None));
    Alcotest.test_case "unknown column raises" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.check_raises "Not_found" Not_found (fun () ->
            ignore (Relation.column r "nope")));
    Alcotest.test_case "insert_strings infers" `Quick (fun () ->
        let r = Relation.create ~name:"s" (Schema.of_names [ "a"; "b" ]) in
        Relation.insert_strings r [ "7"; "XY" ];
        check Alcotest.bool "int inferred" true ((Relation.column r "a").(0) = Value.Int 7));
  ]

(* ---- Catalog ---- *)

let catalog_tests =
  [
    Alcotest.test_case "add and find" `Quick (fun () ->
        let c = Catalog.create ~name:"src" in
        let _ = Catalog.create_relation c ~name:"Tbl" (Schema.of_names [ "a" ]) in
        check Alcotest.bool "found lower" true (Catalog.find c "tbl" <> None);
        check Alcotest.(list string) "names" [ "Tbl" ] (Catalog.relation_names c));
    Alcotest.test_case "duplicate relation raises" `Quick (fun () ->
        let c = Catalog.create ~name:"src" in
        let _ = Catalog.create_relation c ~name:"t" (Schema.of_names [ "a" ]) in
        Alcotest.check_raises "dup"
          (Invalid_argument "Catalog.add: duplicate relation \"T\" in source src")
          (fun () -> ignore (Catalog.create_relation c ~name:"T" (Schema.of_names [ "a" ]))));
    Alcotest.test_case "declare checks endpoints" `Quick (fun () ->
        let c = Catalog.create ~name:"src" in
        let _ = Catalog.create_relation c ~name:"t" (Schema.of_names [ "a" ]) in
        Catalog.declare c (Constraint_def.Unique { relation = "t"; attribute = "a" });
        check Alcotest.bool "declared" true
          (Catalog.declared_unique c ~relation:"T" ~attribute:"A");
        Alcotest.check_raises "bad attr"
          (Invalid_argument "Catalog.declare (unique): unknown attribute t.zz")
          (fun () ->
            Catalog.declare c (Constraint_def.Unique { relation = "t"; attribute = "zz" })));
    Alcotest.test_case "declare dedups" `Quick (fun () ->
        let c = Catalog.create ~name:"src" in
        let _ = Catalog.create_relation c ~name:"t" (Schema.of_names [ "a" ]) in
        let u = Constraint_def.Unique { relation = "t"; attribute = "a" } in
        Catalog.declare c u;
        Catalog.declare c u;
        check Alcotest.int "one" 1 (List.length (Catalog.constraints c)));
    Alcotest.test_case "declared_fks filters" `Quick (fun () ->
        let c = Catalog.create ~name:"src" in
        let _ = Catalog.create_relation c ~name:"t" (Schema.of_names [ "a" ]) in
        let _ = Catalog.create_relation c ~name:"u" (Schema.of_names [ "b" ]) in
        Catalog.declare c (Constraint_def.Primary_key { relation = "t"; attribute = "a" });
        Catalog.declare c
          (Constraint_def.Foreign_key
             { src_relation = "u"; src_attribute = "b"; dst_relation = "t";
               dst_attribute = "a" });
        check Alcotest.int "fks" 1 (List.length (Catalog.declared_fks c)));
    Alcotest.test_case "total_rows" `Quick (fun () ->
        let c = Catalog.create ~name:"src" in
        let t = Catalog.create_relation c ~name:"t" (Schema.of_names [ "a" ]) in
        Relation.insert t [| Value.Int 1 |];
        Relation.insert t [| Value.Int 2 |];
        check Alcotest.int "rows" 2 (Catalog.total_rows c));
  ]

(* ---- Col_stats ---- *)

let of_column vals =
  let r = Relation.create ~name:"r" (Schema.of_names [ "a" ]) in
  Array.iter (fun v -> Relation.insert r [| v |]) vals;
  List.hd (Col_stats.of_relation r)

let col_stats_tests =
  [
    Alcotest.test_case "basic stats" `Quick (fun () ->
        let vals =
          [| Value.text "AB12"; Value.text "CD34"; Value.Null; Value.text "AB12" |]
        in
        let cs = of_column vals in
        check Alcotest.int "rows" 4 cs.rows;
        check Alcotest.int "nulls" 1 cs.nulls;
        check Alcotest.int "distinct" 2 cs.distinct;
        check Alcotest.int "minlen" 4 cs.min_len;
        check Alcotest.int "maxlen" 4 cs.max_len;
        check Alcotest.bool "not unique" false cs.all_unique;
        check (Alcotest.float 0.001) "alpha" 1.0 cs.alpha_frac;
        check (Alcotest.float 0.001) "numeric" 0.0 cs.numeric_frac);
    Alcotest.test_case "numeric fraction" `Quick (fun () ->
        let vals = [| Value.Int 1; Value.Int 2; Value.text "x" |] in
        let cs = of_column vals in
        check (Alcotest.float 0.001) "numeric" (2.0 /. 3.0) cs.numeric_frac);
    Alcotest.test_case "length_spread" `Quick (fun () ->
        let vals = [| Value.text "abcd"; Value.text "abcdefgh" |] in
        let cs = of_column vals in
        check (Alcotest.float 0.001) "spread" 0.5 (Col_stats.length_spread cs));
    Alcotest.test_case "empty column" `Quick (fun () ->
        let cs = of_column [||] in
        check Alcotest.bool "not unique" false cs.all_unique;
        check (Alcotest.float 0.001) "spread" 0.0 (Col_stats.length_spread cs));
    Alcotest.test_case "sample capped" `Quick (fun () ->
        let vals = Array.init 100 (fun i -> Value.Int i) in
        let cs = of_column vals in
        (* the sample holds the first 20 values *)
        check Alcotest.int "sample" 20 (List.length cs.sample));
    Alcotest.test_case "of_relation order" `Quick (fun () ->
        let r = sample_relation () in
        let stats = Col_stats.of_relation r in
        check Alcotest.(list string) "attrs" [ "id"; "acc"; "v" ]
          (List.map (fun (c : Col_stats.t) -> c.attribute) stats));
  ]

(* ---- Vset ---- *)

let vset_tests =
  [
    Alcotest.test_case "subset and equal" `Quick (fun () ->
        let a = Vset.of_list [ Value.Int 1; Value.Int 2 ] in
        let b = Vset.of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
        check Alcotest.bool "a sub b" true (Vset.subset a b);
        check Alcotest.bool "b not sub a" false (Vset.subset b a);
        check Alcotest.bool "not equal" false (Vset.equal a b);
        check Alcotest.bool "self equal" true (Vset.equal a a));
    Alcotest.test_case "inter_count" `Quick (fun () ->
        let a = Vset.of_list [ Value.Int 1; Value.Int 2 ] in
        let b = Vset.of_list [ Value.Int 2; Value.Int 3 ] in
        check Alcotest.int "inter" 1 (Vset.inter_count a b));
    Alcotest.test_case "of_column skips nulls" `Quick (fun () ->
        let s = Vset.of_column [| Value.Null; Value.Int 1; Value.Int 1 |] in
        check Alcotest.int "card" 1 (Vset.cardinal s));
  ]

(* ---- Csv ---- *)

let parse_line line =
  match Csv.read_string line with
  | [ fields ] -> fields
  | records -> Alcotest.failf "%d records in %S" (List.length records) line

let csv_tests =
  [
    Alcotest.test_case "parse simple" `Quick (fun () ->
        check Alcotest.(list string) "fields" [ "a"; "b"; "c" ] (parse_line "a,b,c"));
    Alcotest.test_case "parse quoted" `Quick (fun () ->
        check Alcotest.(list string) "fields" [ "a,b"; "c\"d" ]
          (parse_line "\"a,b\",\"c\"\"d\""));
    Alcotest.test_case "empty fields" `Quick (fun () ->
        check Alcotest.(list string) "fields" [ ""; ""; "" ] (parse_line ",,"));
    Alcotest.test_case "render escapes" `Quick (fun () ->
        check Alcotest.string "line" "\"a,b\",plain" (Csv.render_line [ "a,b"; "plain" ]));
    Alcotest.test_case "relation roundtrip" `Quick (fun () ->
        let r = sample_relation () in
        let doc = Csv.write_relation r in
        let r2 =
          Csv.relation_of_records ~name:"t" ~header:true (Csv.read_string doc)
        in
        check Alcotest.int "rows" (Relation.cardinality r) (Relation.cardinality r2);
        check Alcotest.(list string) "schema"
          (Schema.names (Relation.schema r))
          (Schema.names (Relation.schema r2)));
    Alcotest.test_case "ragged raises" `Quick (fun () ->
        Alcotest.check_raises "ragged"
          (Invalid_argument "Csv.relation_of_records: ragged row in t") (fun () ->
            ignore
              (Csv.relation_of_records ~name:"t" ~header:true
                 [ [ "a"; "b" ]; [ "1" ] ])));
    Alcotest.test_case "crlf stripped" `Quick (fun () ->
        match Csv.read_string "a,b\r\n1,2\r\n" with
        | [ h; r ] ->
            check Alcotest.(list string) "header" [ "a"; "b" ] h;
            check Alcotest.(list string) "row" [ "1"; "2" ] r
        | other -> Alcotest.fail (Printf.sprintf "%d records" (List.length other)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"csv field roundtrip" ~count:200
         QCheck.(list (string_of_size (QCheck.Gen.int_range 0 10)))
         (fun fields ->
           QCheck.assume
             (List.for_all
                (fun f -> not (String.contains f '\n' || String.contains f '\r'))
                fields);
           QCheck.assume (fields <> []);
           (* an all-blank record line is skipped by the reader *)
           QCheck.assume (String.trim (Csv.render_line fields) <> "");
           parse_line (Csv.render_line fields) = fields));
    Alcotest.test_case "quoted field spans lines" `Quick (fun () ->
        check
          Alcotest.(list (list string))
          "records"
          [ [ "a"; "line one\nline two" ]; [ "b"; "plain" ] ]
          (Csv.read_string "a,\"line one\nline two\"\nb,plain\n"));
    Alcotest.test_case "quoted field keeps crlf" `Quick (fun () ->
        (* CR is stripped only at an unquoted record boundary *)
        check
          Alcotest.(list (list string))
          "records"
          [ [ "x\r\ny"; "z" ] ]
          (Csv.read_string "\"x\r\ny\",z\r\n"));
    Alcotest.test_case "quoted empty field is not a blank line" `Quick (fun () ->
        check
          Alcotest.(list (list string))
          "records"
          [ [ "" ]; [ "a" ] ]
          (Csv.read_string "\"\"\na\n"));
    Alcotest.test_case "render/read_string embedded specials" `Quick (fun () ->
        let records =
          [ [ "newline\nin field"; "comma,in field" ];
            [ "quote\"in field"; "crlf\r\nin field" ] ]
        in
        let doc =
          String.concat "\n" (List.map Csv.render_line records) ^ "\n"
        in
        check Alcotest.(list (list string)) "records" records
          (Csv.read_string doc));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"csv record roundtrip (multi-line fields)"
         ~count:200
         QCheck.(
           list_of_size (Gen.int_range 1 5)
             (list_of_size (Gen.int_range 1 4)
                (string_of_size (Gen.int_range 0 10))))
         (fun records ->
           (* a record whose rendering is all-whitespace reads back as a
              skipped blank line unless quoted; exclude that shape *)
           QCheck.assume
             (List.for_all
                (fun fields ->
                  String.trim (Csv.render_line fields) <> "")
                records);
           let doc =
             String.concat "\n" (List.map Csv.render_line records) ^ "\n"
           in
           Csv.read_string doc = records));
  ]

let tests =
  [
    ("relational.vec", vec_tests);
    ("relational.value", value_tests);
    ("relational.schema", schema_tests);
    ("relational.relation", relation_tests);
    ("relational.catalog", catalog_tests);
    ("relational.col_stats", col_stats_tests);
    ("relational.vset", vset_tests);
    ("relational.csv", csv_tests);
  ]
