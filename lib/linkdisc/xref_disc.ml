open Aladin_relational
open Aladin_discovery

type params = { prune : bool; min_matches : int }

let default_params = { prune = true; min_matches = 2 }

(* of an attribute's non-null rows that must match *)
let min_match_frac = 0.02

type correspondence = {
  src_source : string;
  src_relation : string;
  src_attribute : string;
  dst_source : string;
  dst_relation : string;
  dst_attribute : string;
  matches : int;
  match_frac : float;
  encoded : bool;
}

type result = {
  links : Link.t list;
  correspondences : correspondence list;
  attributes_scanned : int;
  pairs_compared : int;
}

let is_decode_sep c = c = ':' || c = '/' || c = '|' || c = '='

let decode_candidates v =
  (* fast path: most values carry no separator, so the common case must
     not pay the four-pass split below (per-row allocation was a real
     contributor to multi-domain GC pressure in the xref fan-out) *)
  if not (String.exists is_decode_sep v) then begin
    let t = String.trim v in
    if t = "" || t = v then [ v ] else [ v; t ]
  end
  else begin
    let split_on seps s =
      let parts = ref [ s ] in
      String.iter
        (fun sep ->
          parts := List.concat_map (String.split_on_char sep) !parts)
        seps;
      !parts
    in
    let tails =
      split_on ":/|=" v |> List.map String.trim |> List.filter (fun s -> s <> "")
    in
    v :: List.filter (fun t -> t <> v) tails
  end

(* per-target accumulation state while scanning one attribute column *)
type target_scan = {
  tgt : string * string * string;
  target_set : (string, unit) Hashtbl.t;
  mutable matches : int;
  mutable encoded_matches : int;
  mutable links : Link.t list;
}

(* One scan of attribute column (src_source, rel, attr) against ALL its
   targets at once: each row's value is decoded exactly once and probed
   against every target set, instead of rescanning (and re-decoding) the
   whole column per target. Results come back per target, in target
   order, identical to the one-target-at-a-time scans. *)
let scan_attribute entry ~src_source ~relation ~attribute ~targets params =
  let catalog = Profile.catalog (entry : Profile_list.entry).sp.profile in
  let rel = Catalog.find_exn catalog relation in
  let ai = Schema.index_of_exn (Relation.schema rel) attribute in
  let states =
    List.map
      (fun (tgt, target_set) ->
        { tgt; target_set; matches = 0; encoded_matches = 0; links = [] })
      targets
  in
  let nonnull = ref 0 in
  Relation.iteri_rows
    (fun row_i row ->
      let v = row.(ai) in
      if not (Value.is_null v) then begin
        incr nonnull;
        let s = Value.to_string v in
        let cands = decode_candidates s in
        (* the owning objects are shared across targets; resolve lazily so
           rows that hit no target pay nothing *)
        let srcs = ref None in
        List.iter
          (fun st ->
            let hit =
              let rec try_tokens first = function
                | [] -> None
                | tok :: rest ->
                    if Hashtbl.mem st.target_set tok then Some (tok, not first)
                    else try_tokens false rest
              in
              try_tokens true cands
            in
            match hit with
            | None -> ()
            | Some (acc, was_encoded) ->
                st.matches <- st.matches + 1;
                if was_encoded then st.encoded_matches <- st.encoded_matches + 1;
                let dst_source, dst_relation, _ = st.tgt in
                let dst =
                  Objref.make ~source:dst_source ~relation:dst_relation
                    ~accession:acc
                in
                let owners =
                  match !srcs with
                  | Some os -> os
                  | None ->
                      let os =
                        Owner_map.object_of_row entry.owner ~relation ~row:row_i
                      in
                      srcs := Some os;
                      os
                in
                List.iter
                  (fun src ->
                    if not (Objref.equal src dst) then
                      st.links <-
                        Link.make ~src ~dst ~kind:Link.Xref
                          ~confidence:(if was_encoded then 0.85 else 0.9)
                          ~evidence:
                            (Printf.sprintf "%s.%s.%s=%s" src_source relation
                               attribute s)
                        :: st.links)
                  owners)
          states
      end)
    rel;
  List.filter_map
    (fun st ->
      let match_frac =
        if !nonnull = 0 then 0.0
        else float_of_int st.matches /. float_of_int !nonnull
      in
      if st.matches >= params.min_matches && match_frac >= min_match_frac
      then begin
        let dst_source, dst_relation, dst_attribute = st.tgt in
        Some
          ( st.links,
            {
              src_source;
              src_relation = relation;
              src_attribute = attribute;
              dst_source;
              dst_relation;
              dst_attribute;
              matches = st.matches;
              match_frac;
              encoded = st.encoded_matches > 0;
            } )
      end
      else None)
    states

let scan_all ~params ?pool profiles =
  let targets = Profile_list.targets profiles in
  (* accession string set per target *)
  let target_sets =
    List.map
      (fun ((source, _, _) as tgt) ->
        let set = Hashtbl.create 256 in
        (match Profile_list.find profiles source with
        | Some e ->
            List.iter
              (fun acc -> Hashtbl.replace set acc ())
              (Owner_map.primary_accessions e.owner)
        | None -> ());
        (tgt, set))
      targets
  in
  (* sequential enumeration pass: collect one scan task per attribute (all
     its targets together) in traversal order (and count/prune here, so
     those counters keep their exact sequential values); the scans
     themselves fan out below *)
  let tasks = ref [] in
  let attributes_scanned = ref 0 in
  let pairs_compared = ref 0 in
  List.iter
    (fun (e : Profile_list.entry) ->
      let src_source = Source_profile.source e.sp in
      let own_primary = Source_profile.primary_accession e.sp in
      Profile.all_stats e.sp.profile
      |> List.iter (fun (cs : Col_stats.t) ->
             let is_own_accession =
               match own_primary with
               | Some (r, a) ->
                   String.lowercase_ascii r = String.lowercase_ascii cs.relation
                   && String.lowercase_ascii a = String.lowercase_ascii cs.attribute
               | None -> false
             in
             if Prune.is_link_source ~prune:params.prune cs && not is_own_accession
             then begin
               incr attributes_scanned;
               let tgts =
                 List.filter
                   (fun ((tgt_source, _, _), _) -> tgt_source <> src_source)
                   target_sets
               in
               pairs_compared := !pairs_compared + List.length tgts;
               if tgts <> [] then tasks := (e, src_source, cs, tgts) :: !tasks
             end
             else Aladin_obs.Trace.ambient_incr "xref.attributes_pruned"))
    (Profile_list.entries profiles);
  let scan (e, src_source, (cs : Col_stats.t), tgts) =
    let hits, secs =
      Aladin_obs.Clock.timed (fun () ->
          scan_attribute e ~src_source ~relation:cs.relation
            ~attribute:cs.attribute ~targets:tgts params)
    in
    Aladin_obs.Trace.ambient_observe "xref.scan_seconds" secs;
    hits
  in
  let hits = List.concat (Aladin_par.Pool.map ?pool scan (List.rev !tasks)) in
  let links = List.concat_map fst hits in
  {
    links = Link.dedup links;
    correspondences = List.map snd hits;
    attributes_scanned = !attributes_scanned;
    pairs_compared = !pairs_compared;
  }

let discover ?(params = default_params) profiles = scan_all ~params profiles

(* Pairwise entry point for the delta pipeline: the cross-reference scan
   restricted to one source pair. Because the global scan only ever
   matches an attribute against OTHER sources' target sets and scores
   each (attribute, target) independently, the global result is exactly
   the union of the per-pair results — restricting the profile list to
   the canonically ordered pair IS the pairwise pass. *)
let discover_between ?(params = default_params) ?pool profiles ~a ~b =
  let lo, hi = if String.compare a b <= 0 then (a, b) else (b, a) in
  scan_all ~params ?pool (Profile_list.restrict profiles [ lo; hi ])
