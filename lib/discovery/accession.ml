open Aladin_relational

type params = {
  min_length : int;
  max_length_spread : float;
}

let default_params = { min_length = 4; max_length_spread = 0.2 }

(* The fraction of values that must contain an alphabetic character: the
   paper says "each".

   Known deviation from the paper: §4.2 asks for "at least one non-digit
   character", but this test uses [Value.contains_alpha], i.e. at least
   one ASCII letter. Real-world accessions (UniProt P12345, GenBank
   NM_000546, GO terms GO:0008150, PDB 1ABC) all carry a letter and pass
   either way; the stricter letter rule additionally rejects
   digits-plus-separator columns such as 12:34567 or EC numbers
   1.14.13.39, which under the paper's literal rule would qualify and,
   being surrogate-key-shaped, are frequent false positives. Sources
   whose accessions are purely numeric with separators are therefore
   not found. *)
let min_alpha_frac = 1.0

type candidate = {
  relation : string;
  attribute : string;
  avg_len : float;
  stats : Col_stats.t;
}

let attribute_is_candidate ?(params = default_params) profile (cs : Col_stats.t) =
  Profile.is_unique profile ~relation:cs.relation ~attribute:cs.attribute
  && cs.rows > 0
  && cs.nulls = 0
  && cs.min_len >= params.min_length
  && cs.alpha_frac >= min_alpha_frac
  && Col_stats.length_spread cs <= params.max_length_spread

let candidates ?(params = default_params) profile =
  let by_relation : (string, candidate) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (cs : Col_stats.t) ->
      if attribute_is_candidate ~params profile cs then begin
        let cand =
          { relation = cs.relation; attribute = cs.attribute;
            avg_len = cs.avg_len; stats = cs }
        in
        match Hashtbl.find_opt by_relation cs.relation with
        | Some existing ->
            (* only the one with the longer average field length survives *)
            if cand.avg_len > existing.avg_len then
              Hashtbl.replace by_relation cs.relation cand
        | None ->
            Hashtbl.add by_relation cs.relation cand;
            order := cs.relation :: !order
      end)
    (Profile.all_stats profile);
  List.rev_map (fun rel -> Hashtbl.find by_relation rel) !order
