open Aladin_relational
open Aladin_discovery
module Sq = Aladin_seq

type params = { min_normalized : float; min_seq_len : int }

let default_params = { min_normalized = 0.5; min_seq_len = 20 }

(* values sampled to classify a column *)
let sample_for_detection = 50

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
                      sample_for_detection
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

(* the normalized values of a detected field at least [min_seq_len]
   long, with their rows, in row order *)
let field_sequences params profiles f =
  match Profile_list.find profiles f.source with
  | None -> []
  | Some e ->
      let rel = Catalog.find_exn (Profile.catalog e.sp.profile) f.relation in
      let ai = Schema.index_of_exn (Relation.schema rel) f.attribute in
      let out = ref [] in
      Relation.iteri_rows
        (fun row_i row ->
          let v = row.(ai) in
          if not (Value.is_null v) then begin
            let s = Sq.Alphabet.normalize (Value.to_string v) in
            if String.length s >= params.min_seq_len then
              out := (row_i, s) :: !out
          end)
        rel;
      List.rev !out

let objs_of profiles source relation row =
  match Profile_list.find profiles source with
  | None -> []
  | Some e -> Owner_map.object_of_row e.owner ~relation ~row

(* one Seq_similarity link per pair of distinct owning objects *)
let links_of_hit profiles (qs, qr, qrow) (ss, sr, srow) ~raw ~normalized acc =
  List.fold_left
    (fun acc src ->
      List.fold_left
        (fun acc dst ->
          if Objref.equal src dst then acc
          else
            Link.make ~src ~dst ~kind:Link.Seq_similarity
              ~confidence:(Float.min 1.0 normalized)
              ~evidence:
                (Printf.sprintf "homology score=%d norm=%.2f" raw normalized)
            :: acc)
        acc (objs_of profiles ss sr srow))
    acc (objs_of profiles qs qr qrow)

let discover_source ?(params = default_params) ?pool profiles ~source =
  (* fields are detected per source, each source's columns classified
     once *)
  let sequences ~kind name =
    sequence_fields params (Profile_list.restrict profiles [ name ])
    |> List.concat_map (fun f ->
           if kind f.kind then
             List.map
               (fun (row, s) -> (f, row, s))
               (field_sequences params profiles f)
           else [])
  in
  let own = sequences ~kind:(fun _ -> true) source in
  let kinds = List.sort_uniq compare (List.map (fun (f, _, _) -> f.kind) own) in
  let others =
    List.concat_map
      (fun other ->
        if other = source then []
        else sequences ~kind:(fun k -> List.mem k kinds) other)
      (Profile_list.sources profiles)
  in
  (* per alphabet kind, the source's own sequences are indexed (ids in
     field-then-row order) and every other source's sequences probe the
     index, the source's sequence being the query. Each probe names the
     job that answers it: a probe whose sequence an earlier one of the
     same kind carries shares that one's job, whose hits are its own, as
     it would read the same index with the same query. *)
  let jobs = ref [] and njobs = ref 0 in
  let job j =
    jobs := j :: !jobs;
    incr njobs;
    !njobs - 1
  in
  let shared = ref 0 in
  let probes =
    List.concat_map
      (fun kind ->
        let of_kind = List.filter (fun (f, _, _) -> f.kind = kind) in
        let entries = Array.of_list (of_kind own) in
        let ix =
          Sq.Homology.probe_index kind (Array.map (fun (_, _, s) -> s) entries)
        in
        let first = Hashtbl.create 64 in
        List.map
          (fun ((_, _, s) as p) ->
            match Hashtbl.find_opt first s with
            | Some id ->
                incr shared;
                (entries, p, id)
            | None ->
                let id = job (ix, s) in
                Hashtbl.add first s id;
                (entries, p, id))
          (of_kind others))
      kinds
  in
  let hits =
    Array.of_list
      (Aladin_par.Pool.map ?pool
         (fun (ix, s) ->
           Sq.Homology.probe ix ~probe_is_query:false ~keep:(Fun.const true) s
             ~min_normalized:params.min_normalized)
         (List.rev !jobs))
  in
  let links = ref [] and verified = ref 0 in
  List.iter
    (fun (entries, (pf, prow, _), id) ->
      let hits = hits.(id) in
      verified := !verified + List.length hits;
      List.iter
        (fun (h : Sq.Homology.probe_hit) ->
          let f, row, _ = entries.(h.id) in
          links :=
            links_of_hit profiles
              (f.source, f.relation, row)
              (pf.source, pf.relation, prow)
              ~raw:h.score ~normalized:h.norm !links)
        hits)
    probes;
  let fresh = Link.dedup !links in
  Aladin_obs.Trace.ambient_incr ~by:(List.length own) "seq.sequences_indexed";
  Aladin_obs.Trace.ambient_incr ~by:!shared "seq.probes_shared";
  Aladin_obs.Trace.ambient_incr ~by:!verified "seq.pairs_verified";
  Aladin_obs.Trace.ambient_incr ~by:(List.length fresh) "seq.links";
  fresh

(* Batch discovery, per alphabet kind: every sequence in one index, and
   each entry probes it as the query for the other sources' entries
   after it, so each unordered cross-source pair is aligned once.
   Entries are ordered by their source\x00relation\x00row string, which
   decides the query of a tied-length pair; same-key entries (two
   sequence columns of one row) keep field order. *)
let discover ?(params = default_params) profiles =
  let fields = sequence_fields params profiles in
  let kinds = List.sort_uniq compare (List.map (fun f -> f.kind) fields) in
  let probes =
    List.concat_map
      (fun kind ->
        let entries =
          List.concat_map
            (fun f ->
              if f.kind = kind then
                List.map
                  (fun (row, s) ->
                    (Printf.sprintf "%s\x00%s\x00%d" f.source f.relation row,
                     (f, row, s)))
                  (field_sequences params profiles f)
              else [])
            fields
          |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.map snd |> Array.of_list
        in
        let ix =
          Sq.Homology.probe_index kind (Array.map (fun (_, _, s) -> s) entries)
        in
        List.init (Array.length entries) (fun i -> (entries, ix, i)))
      kinds
  in
  let hits =
    List.map
      (fun (entries, ix, i) ->
        let f, _, s = entries.(i) in
        (* a same-source pair is never a link, so it is not aligned *)
        let keep j =
          let g, _, _ = entries.(j) in
          j > i && g.source <> f.source
        in
        Sq.Homology.probe ix ~probe_is_query:true ~keep s
          ~min_normalized:params.min_normalized)
      probes
  in
  let links = ref [] and verified = ref 0 in
  List.iter2
    (fun (entries, _, i) hits ->
      let qf, qrow, _ = entries.(i) in
      verified := !verified + List.length hits;
      List.iter
        (fun (h : Sq.Homology.probe_hit) ->
          let sf, srow, _ = entries.(h.id) in
          links :=
            links_of_hit profiles
              (qf.source, qf.relation, qrow)
              (sf.source, sf.relation, srow)
              ~raw:h.score ~normalized:h.norm !links)
        hits)
    probes hits;
  { links = Link.dedup !links; fields; sequences_indexed = List.length probes;
    pairs_verified = !verified }
