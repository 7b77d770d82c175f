open Aladin_relational

type cardinality = One_to_one | One_to_many

type fk = {
  src_relation : string;
  src_attribute : string;
  dst_relation : string;
  dst_attribute : string;
  cardinality : cardinality;
  origin : [ `Declared | `Inferred ];
}

let pp_fk ppf fk =
  Format.fprintf ppf "%s.%s -> %s.%s (%s, %s)" fk.src_relation fk.src_attribute
    fk.dst_relation fk.dst_attribute
    (match fk.cardinality with One_to_one -> "1:1" | One_to_many -> "1:N")
    (match fk.origin with `Declared -> "declared" | `Inferred -> "inferred")

let norm = String.lowercase_ascii

let tokens_of name =
  String.split_on_char '_' (norm name)
  |> List.concat_map (String.split_on_char '.')
  |> List.filter (fun t -> t <> "" && t <> "id" && t <> "fk" && t <> "ref")
  |> List.sort_uniq String.compare

(* sorted-merge intersection: both inputs are sort_uniq'ed by tokens_of *)
let inter_count a b =
  let rec go n a b =
    match (a, b) with
    | [], _ | _, [] -> n
    | x :: a', y :: b' -> (
        match String.compare x y with
        | 0 -> go (n + 1) a' b'
        | c when c < 0 -> go n a' b
        | _ -> go n a b')
  in
  go 0 a b

let overlap a b =
  let inter = inter_count a b in
  let union = List.length a + List.length b - inter in
  if union = 0 then 0.0 else float_of_int inter /. float_of_int union

(* Strdist.contains is reflexive, so it subsumes the equality case *)
let contains_token hay t =
  List.exists (fun h -> Aladin_text.Strdist.contains ~needle:t h) hay

let name_affinity ~src_attribute ~dst_relation ~dst_attribute =
  let src = tokens_of src_attribute in
  let dst =
    List.sort_uniq String.compare (tokens_of dst_relation @ tokens_of dst_attribute)
  in
  if src = [] || dst = [] then 0.0
  else begin
    let exact = overlap src dst in
    (* substring containment also counts: "taxonid" vs "taxon" *)
    let sub =
      if List.exists (fun t -> contains_token dst t) src
         || List.exists (fun t -> contains_token src t) dst
      then 0.5
      else 0.0
    in
    Float.min 1.0 (Float.max exact sub)
  end

type params = {
  require_name_affinity_for_pk_pk : bool;
  min_containment : float;
}

let default_params =
  { require_name_affinity_for_pk_pk = true; min_containment = 1.0 }

(* Type compatibility: integer keys join integer keys, text joins text.
   Floats never act as keys. *)
let key_class (cs : Col_stats.t) =
  if cs.distinct = 0 then `Empty
  else if cs.numeric_frac >= 0.99 then `Integer
  else if cs.alpha_frac > 0.0 || cs.numeric_frac < 0.99 then `Text
  else `Empty

let compatible a b =
  match (key_class a, key_class b) with
  | `Integer, `Integer | `Text, `Text -> true
  | `Empty, _ | _, `Empty | `Integer, `Text | `Text, `Integer -> false

let declared_fks profile =
  Profile.catalog profile |> Catalog.declared_fks
  |> List.filter_map (function
       | Constraint_def.Foreign_key
           { src_relation; src_attribute; dst_relation; dst_attribute } ->
           Some
             { src_relation; src_attribute; dst_relation; dst_attribute;
               cardinality = One_to_many; origin = `Declared }
       | Constraint_def.Unique _ | Constraint_def.Primary_key _ -> None)

(* the distinct non-null values of one column. @raise Not_found *)
let column_values profile ~relation ~attribute =
  match Catalog.find (Profile.catalog profile) relation with
  | Some rel -> Vset.of_column (Relation.column rel attribute)
  | None -> raise Not_found

let source_cardinality profile fk =
  let src_unique =
    Profile.is_unique profile ~relation:fk.src_relation ~attribute:fk.src_attribute
  in
  if
    src_unique
    && Vset.equal
         (column_values profile ~relation:fk.src_relation ~attribute:fk.src_attribute)
         (column_values profile ~relation:fk.dst_relation ~attribute:fk.dst_attribute)
  then One_to_one
  else One_to_many

(* The two pruning predicates of [infer]. *)
let source_eligible ~covered (src : Col_stats.t) =
  src.distinct > 0 && not (covered src)

let candidate_target (src : Col_stats.t) (dst : Col_stats.t) =
  (not
     (norm dst.relation = norm src.relation
     && norm dst.attribute = norm src.attribute))
  && compatible src dst
  && dst.distinct >= src.distinct

let covered_by declared (cs : Col_stats.t) =
  List.exists
    (fun fk ->
      norm fk.src_relation = norm cs.relation
      && norm fk.src_attribute = norm cs.attribute)
    declared

let infer ?(params = default_params) ?pool profile =
  let all = Profile.all_stats profile in
  let uniques =
    List.filter
      (fun (cs : Col_stats.t) ->
        Profile.is_unique profile ~relation:cs.relation ~attribute:cs.attribute)
      all
  in
  let declared =
    List.map
      (fun fk -> { fk with cardinality = source_cardinality profile fk })
      (declared_fks profile)
  in
  let covered = covered_by declared in
  (* every value set the fan-out compares, built before it (the workers
     only read the table) and dropped when [infer] returns *)
  let eligible_srcs = List.filter (source_eligible ~covered) all in
  let sets = Hashtbl.create 64 in
  List.iter
    (fun (cs : Col_stats.t) ->
      let key = (cs.relation, cs.attribute) in
      if not (Hashtbl.mem sets key) then
        Hashtbl.add sets key
          (column_values profile ~relation:cs.relation ~attribute:cs.attribute))
    (eligible_srcs
    @ List.filter
        (fun dst -> List.exists (fun src -> candidate_target src dst) eligible_srcs)
        uniques);
  let values (cs : Col_stats.t) = Hashtbl.find sets (cs.relation, cs.attribute) in
  let inferred =
    Aladin_par.Pool.filter_map ?pool
      (fun (src : Col_stats.t) ->
        if not (source_eligible ~covered src) then None
        else begin
          let src_vals = values src in
          let src_unique =
            Profile.is_unique profile ~relation:src.relation ~attribute:src.attribute
          in
          let eval_candidate (dst : Col_stats.t) =
                if not (candidate_target src dst) then None
                else begin
                  let dst_vals = values dst in
                  let contained =
                    if params.min_containment >= 1.0 then
                      Vset.subset src_vals dst_vals
                    else
                      float_of_int (Vset.inter_count src_vals dst_vals)
                      >= params.min_containment
                         *. float_of_int (max 1 (Vset.cardinal src_vals))
                  in
                  if not contained then None
                  else begin
                    let affinity =
                      name_affinity ~src_attribute:src.attribute
                        ~dst_relation:dst.relation ~dst_attribute:dst.attribute
                    in
                    let pk_pk =
                      src_unique && key_class src = `Integer
                      && key_class dst = `Integer
                    in
                    if pk_pk && params.require_name_affinity_for_pk_pk && affinity = 0.0
                    then None
                    else begin
                      let equal_bonus =
                        if Vset.equal src_vals dst_vals then 0.25 else 0.0
                      in
                      (* tighter targets are likelier true parents *)
                      let tightness =
                        float_of_int src.distinct /. float_of_int (max 1 dst.distinct)
                      in
                      Some (dst, affinity +. equal_bonus +. (0.1 *. tightness))
                    end
                  end
                end
          in
          let candidates =
            List.filter_map
              (fun dst ->
                Aladin_obs.Trace.ambient_incr "fk.pairs_considered";
                match eval_candidate dst with
                | None ->
                    Aladin_obs.Trace.ambient_incr "fk.pairs_pruned";
                    None
                | some -> some)
              uniques
          in
          match
            List.sort
              (fun ((a : Col_stats.t), sa) ((b : Col_stats.t), sb) ->
                match Float.compare sb sa with
                | 0 -> compare (a.relation, a.attribute) (b.relation, b.attribute)
                | c -> c)
              candidates
          with
          | [] -> None
          | (best, _) :: _ ->
              let fk =
                { src_relation = src.relation; src_attribute = src.attribute;
                  dst_relation = best.relation; dst_attribute = best.attribute;
                  cardinality = One_to_many; origin = `Inferred }
              in
              Some { fk with cardinality = source_cardinality profile fk }
        end)
      all
  in
  let fks = declared @ inferred in
  Aladin_obs.Trace.ambient_incr ~by:(List.length fks) "fk.accepted";
  fks
