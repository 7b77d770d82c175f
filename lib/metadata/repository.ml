open Aladin_relational
open Aladin_discovery
module Run_report = Aladin_resilience.Run_report

type source_record = {
  source : string;
  relations : (string * int) list;
  primary : (string * string) option;
  fks : Inclusion.fk list;
  stats : Col_stats.t list;
  sample : (string * string * string list) list;
}

type t = {
  mutable source_records : source_record list;
  mutable prov_store : string option;
  mutable report_store : Run_report.t list; (* latest per source, reversed *)
}

let create () =
  { source_records = []; prov_store = None; report_store = [] }

let record_of_profile (sp : Source_profile.t) =
  let catalog = Profile.catalog sp.profile in
  let stats = Profile.all_stats sp.profile in
  {
    source = Catalog.name catalog;
    relations =
      List.map (fun r -> (Relation.name r, Relation.cardinality r)) (Catalog.relations catalog);
    primary = Source_profile.primary_accession sp;
    fks = sp.fks;
    stats;
    sample =
      List.map
        (fun (cs : Col_stats.t) ->
          ( cs.relation, cs.attribute,
            List.map Value.to_string cs.sample
            |> List.filteri (fun i _ -> i < 5) ))
        stats;
  }

let add_source t sp =
  let r = record_of_profile sp in
  t.source_records <-
    r :: List.filter (fun s -> s.source <> r.source) t.source_records

let sources t = List.rev t.source_records

let find_source t name = List.find_opt (fun s -> s.source = name) t.source_records

let set_provenance t doc = t.prov_store <- Some doc

let provenance t = t.prov_store

let set_run_report t (r : Run_report.t) =
  t.report_store <-
    r
    :: List.filter
         (fun (r' : Run_report.t) -> r'.source <> r.source)
         t.report_store

let run_reports t = List.rev t.report_store

let run_report t source =
  List.find_opt (fun (r : Run_report.t) -> r.source = source) t.report_store

(* --- serialization --- *)

let card_to_string = function
  | Inclusion.One_to_one -> "1:1"
  | Inclusion.One_to_many -> "1:N"

let card_of_string = function
  | "1:1" -> Inclusion.One_to_one
  | "1:N" -> Inclusion.One_to_many
  | s -> invalid_arg (Printf.sprintf "Repository: bad cardinality %S" s)

let origin_to_string = function `Declared -> "declared" | `Inferred -> "inferred"

let origin_of_string = function
  | "declared" -> `Declared
  | "inferred" -> `Inferred
  | s -> invalid_arg (Printf.sprintf "Repository: bad origin %S" s)

let save t =
  let buf = Buffer.create 4096 in
  let line fs =
    Buffer.add_string buf (Serial.record fs);
    Buffer.add_char buf '\n'
  in
  line [ "aladin-metadata"; "1" ];
  List.iter
    (fun r ->
      line [ "source"; r.source ];
      List.iter (fun (rel, n) -> line [ "relation"; rel; string_of_int n ]) r.relations;
      (match r.primary with
      | Some (rel, attr) -> line [ "primary"; rel; attr ]
      | None -> ());
      List.iter
        (fun (fk : Inclusion.fk) ->
          line
            [ "fk"; fk.src_relation; fk.src_attribute; fk.dst_relation;
              fk.dst_attribute; card_to_string fk.cardinality;
              origin_to_string fk.origin ])
        r.fks;
      List.iter
        (fun (cs : Col_stats.t) ->
          line
            [ "stats"; cs.relation; cs.attribute; string_of_int cs.rows;
              string_of_int cs.nulls; string_of_int cs.distinct;
              string_of_int cs.min_len; string_of_int cs.max_len;
              Serial.float_to_string cs.avg_len;
              Serial.float_to_string cs.numeric_frac;
              Serial.float_to_string cs.alpha_frac;
              string_of_bool cs.all_unique ])
        r.stats;
      List.iter
        (fun (rel, attr, vals) -> line ("sample" :: rel :: attr :: vals))
        r.sample)
    (sources t);
  List.iter
    (fun r -> line [ "runreport"; Run_report.serialize r ])
    (List.rev t.report_store);
  (match t.prov_store with
  | Some doc -> line [ "provenance"; doc ]
  | None -> ());
  Buffer.contents buf

type loading = {
  mutable cur : source_record option;
  mutable done_sources : source_record list;
  mutable loaded_prov : string option;
  mutable loaded_reports : Run_report.t list;
}

let init_loading () =
  { cur = None; done_sources = []; loaded_prov = None; loaded_reports = [] }

let flush st =
  match st.cur with
  | Some r ->
      st.done_sources <-
        { r with
          relations = List.rev r.relations;
          fks = List.rev r.fks;
          stats = List.rev r.stats;
          sample = List.rev r.sample }
        :: st.done_sources;
      st.cur <- None
  | None -> ()

let with_cur st f =
  match st.cur with
  | Some r -> st.cur <- Some (f r)
  | None -> invalid_arg "Repository: record outside source block"

(* One record line into the accumulator. @raise Invalid_argument on any
   malformed line, which [load_salvaging] counts and drops. [save]
   writes no [link] or [corr] record (the warehouse's pair store is the
   one copy of the links); older documents carry them, and the pair
   store reads them from the document itself, so here they only end
   the current source block. *)
let apply_line st line =
  match Serial.fields line with
  | [ "source"; name ] ->
      flush st;
      st.cur <-
        Some
          { source = name; relations = []; primary = None; fks = [];
            stats = []; sample = [] }
  | [ "relation"; rel; n ] ->
      with_cur st (fun r ->
          { r with relations = (rel, Serial.int_of_string_exn n) :: r.relations })
  | [ "primary"; rel; attr ] ->
      with_cur st (fun r -> { r with primary = Some (rel, attr) })
  | [ "fk"; sr; sa; dr; da; card; origin ] ->
      with_cur st (fun r ->
          { r with
            fks =
              { Inclusion.src_relation = sr; src_attribute = sa;
                dst_relation = dr; dst_attribute = da;
                cardinality = card_of_string card;
                origin = origin_of_string origin }
              :: r.fks })
  | [ "stats"; rel; attr; rows; nulls; distinct; min_len; max_len;
      avg_len; numeric_frac; alpha_frac; all_unique ] ->
      with_cur st (fun r ->
          { r with
            stats =
              { Col_stats.relation = rel; attribute = attr;
                rows = Serial.int_of_string_exn rows;
                nulls = Serial.int_of_string_exn nulls;
                distinct = Serial.int_of_string_exn distinct;
                min_len = Serial.int_of_string_exn min_len;
                max_len = Serial.int_of_string_exn max_len;
                avg_len = Serial.float_of_string_exn avg_len;
                numeric_frac = Serial.float_of_string_exn numeric_frac;
                alpha_frac = Serial.float_of_string_exn alpha_frac;
                all_unique = bool_of_string all_unique;
                sample = [] }
              :: r.stats })
  | "sample" :: rel :: attr :: vals ->
      with_cur st (fun r -> { r with sample = (rel, attr, vals) :: r.sample })
  | ("link" | "corr") :: _ -> flush st
  | [ "runreport"; doc ] ->
      flush st;
      (match Run_report.deserialize doc with
      | Some r -> st.loaded_reports <- r :: st.loaded_reports
      | None -> invalid_arg "Repository: bad run report")
  | [ "provenance"; prov ] ->
      flush st;
      st.loaded_prov <- Some prov
  | fs ->
      invalid_arg
        (Printf.sprintf "Repository: bad line %S" (String.concat "|" fs))

let finish st =
  flush st;
  {
    source_records = st.done_sources;
    prov_store = st.loaded_prov;
    report_store = st.loaded_reports;
  }

let header_fields = [ "aladin-metadata"; "1" ]

let load_salvaging doc =
  let st = init_loading () in
  let dropped = ref 0 in
  let lines = String.split_on_char '\n' doc |> List.filter (fun l -> l <> "") in
  let body =
    match lines with
    | first :: rest when Serial.fields first = header_fields -> rest
    | [] -> []
    | _ :: _ ->
        (* header lost to corruption; the remaining lines may still parse *)
        incr dropped;
        lines
  in
  List.iter
    (fun line ->
      try apply_line st line with Invalid_argument _ -> incr dropped)
    body;
  (finish st, !dropped)

let stats_summary t =
  List.map
    (fun r ->
      let rows = List.fold_left (fun acc (_, n) -> acc + n) 0 r.relations in
      (r.source, List.length r.relations, rows))
    (sources t)
