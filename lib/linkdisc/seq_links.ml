open Aladin_relational
open Aladin_discovery
module Sq = Aladin_seq

type params = {
  min_normalized : float;
  min_seq_len : int;
  cross_source_only : bool;
  sample_for_detection : int;
}

let default_params =
  { min_normalized = 0.5; min_seq_len = 20; cross_source_only = true;
    sample_for_detection = 50 }

type seq_field = {
  source : string;
  relation : string;
  attribute : string;
  kind : Sq.Alphabet.kind;
}

let column_sample catalog relation attribute n =
  let rel = Catalog.find_exn catalog relation in
  let ai = Schema.index_of_exn (Relation.schema rel) attribute in
  let out = ref [] and count = ref 0 in
  (try
     Relation.iter_rows
       (fun row ->
         if !count >= n then raise Exit;
         let v = row.(ai) in
         if not (Value.is_null v) then begin
           out := Value.to_string v :: !out;
           incr count
         end)
       rel
   with Exit -> ());
  !out

let sequence_fields params profiles =
  Profile_list.entries profiles
  |> List.concat_map (fun (e : Profile_list.entry) ->
         let source = Source_profile.source e.sp in
         let catalog = Profile.catalog e.sp.profile in
         Profile.all_stats e.sp.profile
         |> List.filter_map (fun (cs : Col_stats.t) ->
                if cs.avg_len < float_of_int params.min_seq_len then None
                else
                  let sample =
                    column_sample catalog cs.relation cs.attribute
                      params.sample_for_detection
                  in
                  Sq.Alphabet.classify_column ~min_len:params.min_seq_len sample
                  |> Option.map (fun kind ->
                         { source; relation = cs.relation;
                           attribute = cs.attribute; kind })))

type result = {
  links : Link.t list;
  fields : seq_field list;
  sequences_indexed : int;
  pairs_verified : int;
}

(* id encoding for the homology index: source / relation / row *)
let encode source relation row = Printf.sprintf "%s\x00%s\x00%d" source relation row

let decode id =
  match String.split_on_char '\x00' id with
  | [ source; relation; row ] -> (source, relation, int_of_string row)
  | _ -> invalid_arg "Seq_links.decode"

type state = {
  sparams : params;
  engines : (Sq.Alphabet.kind, Sq.Homology.t) Hashtbl.t;
  mutable seen : string list;
}

let state_create ?(params = default_params) () =
  { sparams = params; engines = Hashtbl.create 3; seen = [] }

let state_sources st = List.rev st.seen

let engine_for st kind =
  match Hashtbl.find_opt st.engines kind with
  | Some e -> e
  | None ->
      let e = Sq.Homology.create kind in
      Hashtbl.add st.engines kind e;
      e

let state_add_source ?pool st profiles ~source =
  if List.mem source st.seen then
    invalid_arg
      (Printf.sprintf "Seq_links.state_add_source: %s already indexed" source);
  st.seen <- source :: st.seen;
  let params = st.sparams in
  let fields =
    sequence_fields params profiles |> List.filter (fun f -> f.source = source)
  in
  let objs_of src relation row =
    match Profile_list.find profiles src with
    | None -> []
    | Some e -> Owner_map.object_of_row e.owner ~relation ~row
  in
  (* Phase 0 (sequential): collect the new sequences in row order and
     pre-create engines — the one index mutation the fan-out must not do. *)
  let collected = ref [] in
  List.iter
    (fun f ->
      match Profile_list.find profiles f.source with
      | None -> ()
      | Some e ->
          ignore (engine_for st f.kind);
          let catalog = Profile.catalog e.sp.profile in
          let rel = Catalog.find_exn catalog f.relation in
          let ai = Schema.index_of_exn (Relation.schema rel) f.attribute in
          Relation.iteri_rows
            (fun row_i row ->
              let v = row.(ai) in
              if not (Value.is_null v) then begin
                let s = Sq.Alphabet.normalize (Value.to_string v) in
                if String.length s >= params.min_seq_len then
                  collected := (f, row_i, s) :: !collected
              end)
            rel)
    fields;
  let new_seqs = List.rev !collected in
  (* Phase 1 (parallel): each new sequence against the persistent index,
     which holds only previously-seen sources and is read-only here. *)
  let old_hits =
    Aladin_par.Pool.map ?pool
      (fun (f, row_i, s) ->
        Sq.Homology.search
          (Hashtbl.find st.engines f.kind)
          ~query_id:(encode f.source f.relation row_i)
          s ~min_normalized:params.min_normalized)
      new_seqs
  in
  (* Phase 2 (sequential): new-vs-new pairs via per-kind scratch indexes
     (search-then-add yields each unordered pair once). Homology scoring
     is per-subject, so old-hits + scratch-hits equals one search against
     the incrementally growing index, hit for hit. Every new-vs-new pair
     is same-source, so with cross_source_only none is aligned. *)
  let hits =
    if params.cross_source_only then old_hits
    else begin
      let scratch = Hashtbl.create 3 in
      List.map2
        (fun (f, row_i, s) old ->
          let sc =
            match Hashtbl.find_opt scratch f.kind with
            | Some e -> e
            | None ->
                let e = Sq.Homology.create f.kind in
                Hashtbl.add scratch f.kind e;
                e
          in
          let query_id = encode f.source f.relation row_i in
          let fresh =
            Sq.Homology.search sc ~query_id s
              ~min_normalized:params.min_normalized
          in
          Sq.Homology.add sc ~id:query_id s;
          old @ fresh)
        new_seqs old_hits
    end
  in
  let links = ref [] in
  let verified = ref 0 in
  List.iter2
    (fun (f, row_i, _) hits ->
      verified := !verified + List.length hits;
      List.iter
        (fun (h : Sq.Homology.hit) ->
          let ss, sr, srow = decode h.subject_id in
          if (not params.cross_source_only) || ss <> f.source then
            List.iter
              (fun src_obj ->
                List.iter
                  (fun dst_obj ->
                    if not (Objref.equal src_obj dst_obj) then
                      links :=
                        Link.make ~src:src_obj ~dst:dst_obj
                          ~kind:Link.Seq_similarity
                          ~confidence:(Float.min 1.0 h.normalized)
                          ~evidence:
                            (Printf.sprintf "homology score=%d norm=%.2f"
                               h.raw_score h.normalized)
                        :: !links)
                  (objs_of ss sr srow))
              (objs_of f.source f.relation row_i))
        hits)
    new_seqs hits;
  List.iter
    (fun (f, row_i, s) ->
      Sq.Homology.add
        (Hashtbl.find st.engines f.kind)
        ~id:(encode f.source f.relation row_i)
        s)
    new_seqs;
  let indexed = List.length new_seqs in
  let fresh = Link.dedup !links in
  Aladin_obs.Trace.ambient_incr ~by:indexed "seq.sequences_indexed";
  Aladin_obs.Trace.ambient_incr ~by:!verified "seq.pairs_verified";
  Aladin_obs.Trace.ambient_incr ~by:(List.length fresh) "seq.links";
  fresh

(* rebuild fast path: put a source's sequences back into the persistent
   index without re-running any homology search — its links are already
   in the store, so only the index content has to match what the
   original run built *)
let state_index_source st profiles ~source =
  if List.mem source st.seen then
    invalid_arg
      (Printf.sprintf "Seq_links.state_index_source: %s already indexed"
         source);
  st.seen <- source :: st.seen;
  let params = st.sparams in
  let fields =
    sequence_fields params profiles |> List.filter (fun f -> f.source = source)
  in
  let indexed = ref 0 in
  List.iter
    (fun f ->
      match Profile_list.find profiles f.source with
      | None -> ()
      | Some e ->
          let engine = engine_for st f.kind in
          let catalog = Profile.catalog e.sp.profile in
          let rel = Catalog.find_exn catalog f.relation in
          let ai = Schema.index_of_exn (Relation.schema rel) f.attribute in
          Relation.iteri_rows
            (fun row_i row ->
              let v = row.(ai) in
              if not (Value.is_null v) then begin
                let s = Sq.Alphabet.normalize (Value.to_string v) in
                if String.length s >= params.min_seq_len then begin
                  Sq.Homology.add engine
                    ~id:(encode f.source f.relation row_i)
                    s;
                  incr indexed
                end
              end)
            rel)
    fields;
  Aladin_obs.Trace.ambient_incr ~by:!indexed "seq.sequences_indexed"

let discover ?(params = default_params) ?pool profiles =
  let fields = sequence_fields params profiles in
  let kinds =
    List.sort_uniq compare (List.map (fun f -> f.kind) fields)
  in
  let indexed = ref 0 in
  let links = ref [] in
  let pairs_verified = ref 0 in
  List.iter
    (fun kind ->
      let engine = Sq.Homology.create kind in
      let kind_fields = List.filter (fun f -> f.kind = kind) fields in
      List.iter
        (fun f ->
          match Profile_list.find profiles f.source with
          | None -> ()
          | Some e ->
              let catalog = Profile.catalog e.sp.profile in
              let rel = Catalog.find_exn catalog f.relation in
              let ai = Schema.index_of_exn (Relation.schema rel) f.attribute in
              Relation.iteri_rows
                (fun row_i row ->
                  let v = row.(ai) in
                  if not (Value.is_null v) then begin
                    let s = Sq.Alphabet.normalize (Value.to_string v) in
                    if String.length s >= params.min_seq_len then begin
                      Sq.Homology.add engine ~id:(encode f.source f.relation row_i) s;
                      incr indexed
                    end
                  end)
                rel)
        kind_fields;
      let hits =
        Sq.Homology.all_pairs ?pool engine ~min_normalized:params.min_normalized
      in
      pairs_verified := !pairs_verified + List.length hits;
      List.iter
        (fun (h : Sq.Homology.hit) ->
          let qs, qr, qrow = decode h.query_id in
          let ss, sr, srow = decode h.subject_id in
          if (not params.cross_source_only) || qs <> ss then begin
            let objs_of source relation row =
              match Profile_list.find profiles source with
              | None -> []
              | Some e -> Owner_map.object_of_row e.owner ~relation ~row
            in
            List.iter
              (fun src ->
                List.iter
                  (fun dst ->
                    if not (Objref.equal src dst) then
                      links :=
                        Link.make ~src ~dst ~kind:Link.Seq_similarity
                          ~confidence:(Float.min 1.0 h.normalized)
                          ~evidence:
                            (Printf.sprintf "homology score=%d norm=%.2f"
                               h.raw_score h.normalized)
                        :: !links)
                  (objs_of ss sr srow))
              (objs_of qs qr qrow)
          end)
        hits)
    kinds;
  { links = Link.dedup !links; fields; sequences_indexed = !indexed;
    pairs_verified = !pairs_verified }

(* Pairwise entry point for the non-incremental (batch) homology path:
   index and align the two sources alone. Alignment scores depend only
   on the two sequences, so the union over pairs equals the global
   all-pairs run. *)
let discover_between ?params ?pool profiles ~a ~b =
  let lo, hi = if String.compare a b <= 0 then (a, b) else (b, a) in
  (* a self pair restricts to the single source once, not twice *)
  let names = if lo = hi then [ lo ] else [ lo; hi ] in
  discover ?params ?pool (Profile_list.restrict profiles names)
