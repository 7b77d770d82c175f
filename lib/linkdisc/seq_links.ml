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
     index, the source's sequence being the query; with
     cross_source_only off, each own sequence also probes for the ids
     before it, as the query itself *)
  let probes =
    List.concat_map
      (fun kind ->
        let of_kind = List.filter (fun (f, _, _) -> f.kind = kind) in
        let entries = Array.of_list (of_kind own) in
        let ix =
          Sq.Homology.probe_index kind (Array.map (fun (_, _, s) -> s) entries)
        in
        List.map
          (fun p -> (entries, ix, p, false, Fun.const true))
          (of_kind others)
        @
        if params.cross_source_only then []
        else
          Array.to_list
            (Array.mapi
               (fun id p -> (entries, ix, p, true, fun j -> j < id))
               entries))
      kinds
  in
  let hits =
    Aladin_par.Pool.map ?pool
      (fun (_, ix, (_, _, s), probe_is_query, keep) ->
        Sq.Homology.probe ix ~probe_is_query ~keep s
          ~min_normalized:params.min_normalized)
      probes
  in
  let links = ref [] and verified = ref 0 in
  List.iter2
    (fun (entries, _, (pf, prow, _), _, _) hits ->
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
    probes hits;
  let fresh = Link.dedup !links in
  Aladin_obs.Trace.ambient_incr ~by:(List.length own) "seq.sequences_indexed";
  Aladin_obs.Trace.ambient_incr ~by:!verified "seq.pairs_verified";
  Aladin_obs.Trace.ambient_incr ~by:(List.length fresh) "seq.links";
  fresh

(* id encoding for the batch homology engine: source / relation / row *)
let encode source relation row =
  Printf.sprintf "%s\x00%s\x00%d" source relation row

let decode id =
  match String.split_on_char '\x00' id with
  | [ source; relation; row ] -> (source, relation, int_of_string row)
  | _ -> invalid_arg "Seq_links.decode"

let source_of id = String.sub id 0 (String.index id '\x00')

let discover ?(params = default_params) ?pool profiles =
  let fields = sequence_fields params profiles in
  let kinds =
    List.sort_uniq compare (List.map (fun f -> f.kind) fields)
  in
  let indexed = ref 0 in
  let links = ref [] in
  let pairs_verified = ref 0 in
  (* a same-source pair is never a link when cross_source_only holds, so
     it is not aligned *)
  let keep =
    if params.cross_source_only then fun q s -> source_of q <> source_of s
    else fun _ _ -> true
  in
  List.iter
    (fun kind ->
      let engine = Sq.Homology.create kind in
      List.iter
        (fun f ->
          if f.kind = kind then
            List.iter
              (fun (row_i, s) ->
                Sq.Homology.add engine ~id:(encode f.source f.relation row_i) s;
                incr indexed)
              (field_sequences params profiles f))
        fields;
      let hits =
        Sq.Homology.all_pairs ?pool ~keep engine
          ~min_normalized:params.min_normalized
      in
      pairs_verified := !pairs_verified + List.length hits;
      List.iter
        (fun (h : Sq.Homology.hit) ->
          links :=
            links_of_hit profiles (decode h.query_id) (decode h.subject_id)
              ~raw:h.raw_score ~normalized:h.normalized !links)
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
