open Aladin_relational

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let like_match ~pattern s =
  let p = String.lowercase_ascii pattern and s = String.lowercase_ascii s in
  let np = String.length p and ns = String.length s in
  (* classic backtracking wildcard match *)
  let rec go i j star_p star_s =
    if j = ns then begin
      let rec only_pct i = i >= np || (p.[i] = '%' && only_pct (i + 1)) in
      only_pct i
    end
    else if i < np && (p.[i] = '_' || p.[i] = s.[j]) then
      go (i + 1) (j + 1) star_p star_s
    else if i < np && p.[i] = '%' then go (i + 1) j i j
    else if star_p >= 0 then go (star_p + 1) (star_s + 1) star_p (star_s + 1)
    else false
  in
  go 0 0 (-1) (-1)

(* working set: qualified column names + rows *)
type env = { cols : string list; rows : Value.t array list }

let norm = String.lowercase_ascii

let resolve_col env (c : Sql_parser.column) =
  let want_attr = norm c.attr in
  let matches =
    List.mapi (fun i name -> (i, name)) env.cols
    |> List.filter (fun (_, name) ->
           match c.table with
           | Some t -> norm name = norm t ^ "." ^ want_attr
           | None -> (
               match String.rindex_opt name '.' with
               | Some k ->
                   norm (String.sub name (k + 1) (String.length name - k - 1))
                   = want_attr
               | None -> norm name = want_attr))
  in
  match matches with
  | [ (i, _) ] -> i
  | [] -> fail "unknown column %s" (Sql_parser.column_to_string c)
  | _ :: _ -> fail "ambiguous column %s" (Sql_parser.column_to_string c)

let load_table resolve name =
  match resolve name with
  | Some rel -> rel
  | None -> fail "unknown table %s" name

let env_of_relation ~as_name rel =
  let cols =
    List.map (fun a -> as_name ^ "." ^ a) (Schema.names (Relation.schema rel))
  in
  { cols; rows = Relation.rows rel }

let join_env env ~right ~left_col ~right_col =
  let li = resolve_col env left_col in
  let ri = resolve_col right right_col in
  let index : (string, Value.t array list ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun row ->
      let v = row.(ri) in
      if not (Value.is_null v) then begin
        let k = Value.to_string v in
        match Hashtbl.find_opt index k with
        | Some l -> l := row :: !l
        | None -> Hashtbl.add index k (ref [ row ])
      end)
    right.rows;
  let rows =
    List.concat_map
      (fun lrow ->
        let v = lrow.(li) in
        if Value.is_null v then []
        else
          match Hashtbl.find_opt index (Value.to_string v) with
          | None -> []
          | Some partners ->
              List.rev_map (fun rrow -> Array.append lrow rrow) !partners)
      env.rows
  in
  { cols = env.cols @ right.cols; rows }

let cmp_values op a b =
  let c = Value.compare a b in
  match op with
  | Sql_parser.Ceq -> c = 0
  | Sql_parser.Cneq -> c <> 0
  | Sql_parser.Clt -> c < 0
  | Sql_parser.Cgt -> c > 0
  | Sql_parser.Cle -> c <= 0
  | Sql_parser.Cge -> c >= 0
  | Sql_parser.Clike -> false

(* values compare loosely: a text "42" equals the number 42 *)
let loose_compare op (a : Value.t) (b : Value.t) =
  match op with
  | Sql_parser.Clike -> like_match ~pattern:(Value.to_string b) (Value.to_string a)
  | Sql_parser.Ceq | Sql_parser.Cneq | Sql_parser.Clt | Sql_parser.Cgt
  | Sql_parser.Cle | Sql_parser.Cge -> (
      match (a, b) with
      | Value.Text _, (Value.Int _ | Value.Float _)
      | (Value.Int _ | Value.Float _), Value.Text _ ->
          cmp_values op (Value.of_string (Value.to_string a))
            (Value.of_string (Value.to_string b))
      | _ -> cmp_values op a b)

let value_of_operand env row = function
  | Sql_parser.Lit_string s -> Some (Value.Text s)
  | Sql_parser.Lit_number f ->
      if Float.is_integer f then Some (Value.Int (int_of_float f))
      else Some (Value.Float f)
  | Sql_parser.Col c ->
      let j = resolve_col env c in
      let v = row.(j) in
      if Value.is_null v then None else Some v

let rec eval_expr env row (e : Sql_parser.expr) =
  match e with
  | Sql_parser.Is_null col -> Value.is_null row.(resolve_col env col)
  | Sql_parser.Is_not_null col -> not (Value.is_null row.(resolve_col env col))
  | Sql_parser.Compare (col, op, operand) -> (
      let v = row.(resolve_col env col) in
      if Value.is_null v then false
      else
        match value_of_operand env row operand with
        | Some v2 -> loose_compare op v v2
        | None -> false)
  | Sql_parser.In_list (col, operands) -> (
      let v = row.(resolve_col env col) in
      if Value.is_null v then false
      else
        List.exists
          (fun operand ->
            match value_of_operand env row operand with
            | Some v2 -> loose_compare Sql_parser.Ceq v v2
            | None -> false)
          operands)
  | Sql_parser.And (a, b) -> eval_expr env row a && eval_expr env row b
  | Sql_parser.Or (a, b) -> eval_expr env row a || eval_expr env row b
  | Sql_parser.Not a -> not (eval_expr env row a)

(* --- aggregates --- *)

let numeric_value = function
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | Value.Null | Value.Text _ -> None

let float_result f =
  if Float.is_integer f && Float.abs f < 1e15 then Value.Int (int_of_float f)
  else Value.Float f

let compute_aggregate env rows (a : Sql_parser.aggregate) =
  let column_values col =
    let i = resolve_col env col in
    List.filter_map
      (fun row -> if Value.is_null row.(i) then None else Some row.(i))
      rows
  in
  match a with
  | Sql_parser.Count_star -> Value.Int (List.length rows)
  | Sql_parser.Count col -> Value.Int (List.length (column_values col))
  | Sql_parser.Sum col ->
      float_result
        (List.fold_left
           (fun acc v ->
             match numeric_value v with Some f -> acc +. f | None -> acc)
           0.0 (column_values col))
  | Sql_parser.Avg col -> (
      let nums = List.filter_map numeric_value (column_values col) in
      match nums with
      | [] -> Value.Null
      | _ ->
          Value.Float
            (List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)))
  | Sql_parser.Min_agg col -> (
      match column_values col with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun m x -> if Value.compare x m < 0 then x else m) v rest)
  | Sql_parser.Max_agg col -> (
      match column_values col with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun m x -> if Value.compare x m > 0 then x else m) v rest)

let has_aggregates (q : Sql_parser.query) =
  List.exists
    (function Sql_parser.Item_agg _ -> true | Sql_parser.Item_col _ -> false)
    q.projection

let grouped_output env (q : Sql_parser.query) rows =
  let group_idxs = List.map (resolve_col env) q.group_by in
  (* every plain selected column must be a grouping column *)
  List.iter
    (function
      | Sql_parser.Item_col c ->
          let i = resolve_col env c in
          if not (List.mem i group_idxs) then
            fail "column %s must appear in GROUP BY"
              (Sql_parser.column_to_string c)
      | Sql_parser.Item_agg _ -> ())
    q.projection;
  let groups : (string, Value.t array list ref) Hashtbl.t = Hashtbl.create 64 in
  let group_order = ref [] in
  List.iter
    (fun row ->
      let key =
        String.concat "\x00"
          (List.map (fun i -> Value.to_string row.(i)) group_idxs)
      in
      match Hashtbl.find_opt groups key with
      | Some l -> l := row :: !l
      | None ->
          Hashtbl.add groups key (ref [ row ]);
          group_order := key :: !group_order)
    rows;
  let group_order = List.rev !group_order in
  let out_cols =
    List.map
      (function
        | Sql_parser.Item_col c -> List.nth env.cols (resolve_col env c)
        | Sql_parser.Item_agg a -> Sql_parser.aggregate_name a)
      q.projection
  in
  let out_rows =
    List.map
      (fun key ->
        let members = List.rev !(Hashtbl.find groups key) in
        let rep = match members with r :: _ -> r | [] -> assert false in
        Array.of_list
          (List.map
             (function
               | Sql_parser.Item_col c -> rep.(resolve_col env c)
               | Sql_parser.Item_agg a -> compute_aggregate env members a)
             q.projection))
      group_order
  in
  (out_cols, out_rows)

let eval ~resolve (q : Sql_parser.query) =
  let base = load_table resolve q.from_table in
  let env = ref (env_of_relation ~as_name:q.from_table base) in
  List.iter
    (fun (table, left_col, right_col) ->
      let rel = load_table resolve table in
      let right = env_of_relation ~as_name:table rel in
      (* the join condition may name the sides in either order *)
      let try_join l r =
        try Some (join_env !env ~right ~left_col:l ~right_col:r)
        with Eval_error _ -> None
      in
      match try_join left_col right_col with
      | Some e -> env := e
      | None -> (
          match try_join right_col left_col with
          | Some e -> env := e
          | None ->
              fail "cannot resolve join condition %s = %s"
                (Sql_parser.column_to_string left_col)
                (Sql_parser.column_to_string right_col)))
    q.joins;
  let rows =
    match q.where with
    | None -> !env.rows
    | Some expr -> List.filter (fun row -> eval_expr !env row expr) !env.rows
  in
  let grouping = q.group_by <> [] || has_aggregates q in
  let sort_rows cols rows =
    match q.order_by with
    | None -> rows
    | Some { order_col; descending } ->
        let i = resolve_col { cols; rows } order_col in
        let cmp a b =
          let c = Value.compare a.(i) b.(i) in
          if descending then -c else c
        in
        List.stable_sort cmp rows
  in
  let out_cols, out_rows =
    if grouping then begin
      if q.projection = [] then fail "SELECT * cannot be combined with aggregates";
      (* grouped: ORDER BY applies to the aggregated output *)
      let cols, rows = grouped_output !env q rows in
      (cols, sort_rows cols rows)
    end
    else begin
      (* ungrouped: ORDER BY may use any input column, even unprojected *)
      let rows = sort_rows !env.cols rows in
      match q.projection with
      | [] -> (!env.cols, rows)
      | items ->
          let cols =
            List.map
              (function
                | Sql_parser.Item_col c -> c
                | Sql_parser.Item_agg _ -> assert false)
              items
          in
          let idxs = List.map (resolve_col !env) cols in
          ( List.map (fun i -> List.nth !env.cols i) idxs,
            List.map
              (fun row -> Array.of_list (List.map (fun i -> row.(i)) idxs))
              rows )
    end
  in
  let out_rows =
    if not q.distinct then out_rows
    else begin
      let seen = Hashtbl.create 64 in
      List.filter
        (fun row ->
          let key =
            String.concat "\x00" (Array.to_list (Array.map Value.to_string row))
          in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        out_rows
    end
  in
  let out_rows =
    match q.limit with
    | None -> out_rows
    | Some n -> List.filteri (fun i _ -> i < n) out_rows
  in
  let result = Relation.create ~name:"result" (Schema.of_names out_cols) in
  List.iter (Relation.insert result) out_rows;
  result

let run ~resolve input = eval ~resolve (Sql_parser.parse input)

(* rows a rendered result shows *)
let max_rows = 25

let render_result rel =
  let cols = Schema.names (Relation.schema rel) in
  let rows =
    Relation.rows rel
    |> List.filteri (fun i _ -> i < max_rows)
    |> List.map (fun r -> Array.to_list (Array.map Value.to_string r))
  in
  let all = cols :: rows in
  let ncols = List.length cols in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat " | "
      (List.mapi
         (fun i cell ->
           let cell = if String.length cell > 40 then String.sub cell 0 37 ^ "..." else cell in
           Printf.sprintf "%-*s" (min 40 (List.nth widths i)) cell)
         row)
  in
  let sep =
    String.concat "-+-" (List.map (fun w -> String.make (min 40 w) '-') widths)
  in
  let body = List.map line rows in
  let footer =
    if Relation.cardinality rel > max_rows then
      [ Printf.sprintf "... (%d rows total)" (Relation.cardinality rel) ]
    else [ Printf.sprintf "(%d rows)" (Relation.cardinality rel) ]
  in
  String.concat "\n" ((line cols :: sep :: body) @ footer)
