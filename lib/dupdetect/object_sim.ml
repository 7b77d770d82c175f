open Aladin_relational
open Aladin_discovery
open Aladin_links

type repr = {
  obj : Objref.t;
  fields : (string * string) list;
}

(* an attribute is bag-worthy when it carries content rather than keys:
   not an FK endpoint shape (pure integers), not null-only *)
let content_attribute (cs : Col_stats.t) = cs.distinct > 0 && cs.numeric_frac < 0.99

(* growable bag with its size tracked alongside, so the per-append cap
   check is O(1) instead of List.length's walk of the whole bag *)
type bag = { mutable n : int; mutable items : (string * string) list }

(* fields kept per object, in attribute-then-row order *)
let max_fields_per_object = 40

let build_reprs ?(exclude_attributes = []) profiles =
  let norm = String.lowercase_ascii in
  let excluded =
    List.map (fun (s, r, a) -> (norm s, norm r, norm a)) exclude_attributes
  in
  let bags : (string, bag) Hashtbl.t = Hashtbl.create 256 in
  let refs : (string, Objref.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (e : Profile_list.entry) ->
      let catalog = Profile.catalog e.sp.profile in
      let source = norm (Source_profile.source e.sp) in
      Profile.all_stats e.sp.profile
      |> List.iter (fun (cs : Col_stats.t) ->
             let keep =
               content_attribute cs
               && not
                    (List.mem (source, norm cs.relation, norm cs.attribute)
                       excluded)
             in
             if keep then begin
               let rel = Catalog.find_exn catalog cs.relation in
               let ai = Schema.index_of_exn (Relation.schema rel) cs.attribute in
               let qualified = cs.relation ^ "." ^ cs.attribute in
               Relation.iteri_rows
                 (fun row_i row ->
                   let v = row.(ai) in
                   if not (Value.is_null v) then
                     List.iter
                       (fun obj ->
                         let key = Objref.to_string obj in
                         let bag =
                           match Hashtbl.find_opt bags key with
                           | Some b -> b
                           | None ->
                               let b = { n = 0; items = [] } in
                               Hashtbl.add bags key b;
                               Hashtbl.replace refs key obj;
                               b
                         in
                         if bag.n < max_fields_per_object then begin
                           bag.n <- bag.n + 1;
                           bag.items <- (qualified, Value.to_string v) :: bag.items
                         end)
                       (Owner_map.object_of_row e.owner ~relation:cs.relation
                          ~row:row_i))
                 rel
             end))
    (Profile_list.entries profiles);
  Hashtbl.fold
    (fun key bag acc ->
      { obj = Hashtbl.find refs key; fields = List.rev bag.items } :: acc)
    bags []
  |> List.sort (fun a b -> Objref.compare a.obj b.obj)

(* a matched field pair's score weighs value similarity over name
   affinity *)
let w_value = 0.8

let w_name = 0.2

type context = { df : (string, int) Hashtbl.t; n_objects : int }

(* the df keys of one object: its lowercased values, each counted once *)
let distinct_keys keys =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun k ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    keys

let context_of_keys n_objects key_lists =
  let df = Hashtbl.create 1024 in
  List.iter
    (List.iter (fun k ->
         Hashtbl.replace df k (1 + try Hashtbl.find df k with Not_found -> 0)))
    key_lists;
  { df; n_objects }

let context_of reprs =
  context_of_keys (List.length reprs)
    (List.map
       (fun r ->
         distinct_keys (List.map (fun (_, v) -> String.lowercase_ascii v) r.fields))
       reprs)

let df_of_key ctx k = try Hashtbl.find ctx.df k with Not_found -> 1

let df_of ctx v = df_of_key ctx (String.lowercase_ascii v)

(* a value is "identifying" when only a handful of objects carry it *)
let identity_df_cap ctx = max 8 (ctx.n_objects / 50)

(* ------------------------------------------------------------------ *)
(* prepared representations: everything the per-pair similarity needs,
   computed once per object before the candidate fan-out               *)
(* ------------------------------------------------------------------ *)

type pfield = {
  attr : string;  (* original qualified attribute name *)
  value : string;  (* original value (for output tuples / evidence) *)
  key : string;  (* String.lowercase_ascii value: the df key *)
  name_toks : string list;  (* Field_sim.name_tokens attr *)
  pv : Field_sim.prepared;  (* trimmed/lowercased/tokenized value *)
  (* anchor shape of the value itself: >= 4 chars, identifier-shaped
     (contains a digit) or substantial text, and not a sequence *)
  anchor_shape : bool;
  seq_raw : bool;  (* Field_sim.is_sequence_value value *)
}

type prepared = {
  prepr : repr;
  pfields : pfield array;
  keys : string list;  (* distinct df keys, for context_of_prepared *)
}

let prepare ?(name_tokens = Field_sim.name_tokens) r =
  let pfields =
    List.map
      (fun (attr, v) ->
        let seq_raw = Field_sim.is_sequence_value v in
        let key = String.lowercase_ascii v in
        {
          attr;
          value = v;
          key;
          name_toks = name_tokens attr;
          (* prepared from the key, so the prepared value shares its
             string unless trimming changed it *)
          pv = Field_sim.prepare key;
          anchor_shape =
            String.length v >= 4
            && (String.exists (fun c -> c >= '0' && c <= '9') v
               || String.length v >= 25)
            && not seq_raw;
          seq_raw;
        })
      r.fields
  in
  {
    prepr = r;
    pfields = Array.of_list pfields;
    keys = distinct_keys (List.map (fun f -> f.key) pfields);
  }

let repr_of_prepared p = p.prepr

let context_of_prepared ps =
  context_of_keys (List.length ps) (List.map (fun p -> p.keys) ps)

(* a prepared object with its fields' dfs resolved under one context *)
type bound = { prep : prepared; dfs : int array; ctx : context option }

let bind ?context p =
  {
    prep = p;
    dfs =
      (match context with
      | Some ctx -> Array.map (fun f -> df_of_key ctx f.key) p.pfields
      | None -> Array.make (Array.length p.pfields) 1);
    ctx = context;
  }

(* IDF of the rarer of the two matched values *)
let idf_weight context va vb =
  match context with
  | None -> 1.0
  | Some ctx ->
      let d = min (df_of ctx va) (df_of ctx vb) in
      log (1.0 +. (float_of_int (max 1 ctx.n_objects) /. float_of_int d))

(* anchors must be rare AND distinctive: identifier-shaped (contains a
   digit, like accessions and gene symbols) or substantial text — never a
   short categorical token that happens to have low frequency, never a
   sequence *)
let anchor_match ctx ~name_sim ~vs va vb =
  vs >= 0.85 && name_sim > 0.0
  && min (df_of ctx va) (df_of ctx vb) <= identity_df_cap ctx
  && String.length va >= 4
  && (String.exists (fun c -> c >= '0' && c <= '9') va || String.length va >= 25)
  && (not (Field_sim.is_sequence_value va))
  && not (Field_sim.is_sequence_value vb)

(* greedy best-counterpart matching, smaller object driving; returns
   (field of a, field of b, value similarity) in a-field order *)
let field_matches_prepared a b =
  let smaller, larger =
    if Array.length a.pfields <= Array.length b.pfields then (a, b) else (b, a)
  in
  let swapped = smaller != a in
  let out = ref [] in
  Array.iter
    (fun (fs : pfield) ->
      let best =
        Array.fold_left
          (fun acc (fl : pfield) ->
            let vs = Field_sim.similarity_prepared fs.pv fl.pv in
            match acc with
            | Some (_, best_vs) when best_vs >= vs -> acc
            | Some _ | None -> Some (fl, vs))
          None larger.pfields
      in
      match best with
      | None -> ()
      | Some (fl, vs) ->
          out := (if swapped then (fl, fs, vs) else (fs, fl, vs)) :: !out)
    smaller.pfields;
  List.rev !out

(* HOT-PATH-BEGIN: per-candidate-pair code. Everything below runs once per
   candidate pair inside the duplicate-detection fan-out; value
   normalization, tokenization, sequence detection and df lookups must all
   come from the [prepare]d fields and the [bind]-time df arrays, never be
   recomputed here (enforced by a grep-gate in scripts/check.sh). *)

let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

let similarity_prepared a b =
  let na = Array.length a.prep.pfields and nb = Array.length b.prep.pfields in
  if na = 0 || nb = 0 then 0.0
  else begin
    let context = a.ctx in
    (* Fellegi-Sunter flavour: agreement on a rare value is strong evidence,
       disagreement is weak evidence either way; and a true duplicate must
       agree on at least one identifying (near-unique) value. The greedy
       matching is fused into the scoring loop — no per-pair match list is
       materialized on this path. *)
    let swapped = na > nb in
    let smaller = if swapped then b else a and larger = if swapped then a else b in
    let sf = smaller.prep.pfields and lf = larger.prep.pfields in
    let identity_agreement = ref false in
    (* float-array cells, not float refs: every [:=] on a float ref boxes
       (no flambda), and this loop runs per candidate pair *)
    let acc = [| 0.0; 0.0; 0.0 |] in
    (* acc.(0) = total, acc.(1) = wsum, acc.(2) = best vs of current fs *)
    let nl = Array.length lf in
    for s = 0 to Array.length sf - 1 do
      let fs = sf.(s) in
      let best_i = ref (-1) in
      acc.(2) <- neg_infinity;
      for l = 0 to nl - 1 do
        let vs = Field_sim.similarity_prepared fs.pv lf.(l).pv in
        if vs > acc.(2) then begin
          acc.(2) <- vs;
          best_i := l
        end
      done;
      if !best_i >= 0 then begin
        let fl = lf.(!best_i) and vs = acc.(2) in
        (* a's field is the anchor candidate, b's must not be a sequence *)
        let a_anchor_shape = if swapped then fl.anchor_shape else fs.anchor_shape
        and b_seq_raw = if swapped then fs.seq_raw else fl.seq_raw in
        let name_sim = Field_sim.name_affinity_tokens fs.name_toks fl.name_toks in
        let s_score = (w_value *. vs) +. (w_name *. name_sim) in
        let df = imin smaller.dfs.(s) larger.dfs.(!best_i) in
        (* a greedy value match between unrelated attributes (an accession
           landing on "bait") must not be amplified as evidence *)
        let w =
          match context with
          | Some ctx when vs >= 0.6 && name_sim > 0.0 ->
              log (1.0 +. (float_of_int (imax 1 ctx.n_objects) /. float_of_int df))
          | Some _ | None -> 1.0
        in
        (match context with
        | Some ctx
          when vs >= 0.85 && name_sim > 0.0
               && df <= identity_df_cap ctx
               && a_anchor_shape && not b_seq_raw ->
            identity_agreement := true
        | Some _ | None -> ());
        acc.(0) <- acc.(0) +. (w *. s_score);
        acc.(1) <- acc.(1) +. w
      end
    done;
    if acc.(1) = 0.0 then 0.0
    else begin
      let base = acc.(0) /. acc.(1) /. (w_value +. w_name) in
      match context with
      | Some _ when not !identity_agreement -> base *. 0.5
      | Some _ | None -> base
    end
  end

(* Whether some field pair could be the identity agreement of
   [similarity_prepared a b]: the loop there records one only for a
   smaller-object field and its best counterpart that meet every test
   below, so a pair with none scores half its base, at most 0.5. The
   value similarity, the one costly test, runs last. *)
let may_agree a b =
  match a.ctx with
  | None -> true
  | Some ctx ->
      let cap = identity_df_cap ctx in
      let af = a.prep.pfields and bf = b.prep.pfields in
      let a_first = Array.length af <= Array.length bf in
      let found = ref false and i = ref 0 in
      while (not !found) && !i < Array.length af do
        let fa = af.(!i) in
        if fa.anchor_shape then begin
          let j = ref 0 in
          while (not !found) && !j < Array.length bf do
            let fb = bf.(!j) in
            if (not fb.seq_raw)
               && imin a.dfs.(!i) b.dfs.(!j) <= cap
               && Field_sim.name_affinity_tokens fa.name_toks fb.name_toks > 0.0
               && (if a_first then Field_sim.similarity_at_least fa.pv fb.pv 0.85
                   else Field_sim.similarity_at_least fb.pv fa.pv 0.85)
            then found := true;
            incr j
          done
        end;
        incr i
      done;
      !found

(* HOT-PATH-END *)

let field_matches a b =
  field_matches_prepared (prepare a) (prepare b)
  |> List.map (fun ((fa : pfield), (fb : pfield), vs) ->
         (fa.attr, fa.value, fb.attr, fb.value, vs))

let similarity ?context a b =
  similarity_prepared (bind ?context (prepare a)) (bind ?context (prepare b))

let explain ?context a b =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s vs %s\n" (Objref.to_string a.obj) (Objref.to_string b.obj);
  List.iter
    (fun (attr_a, va, attr_b, vb, vs) ->
      let name_sim = Field_sim.name_affinity attr_a attr_b in
      let w =
        if vs >= 0.6 && name_sim > 0.0 then idf_weight context va vb else 1.0
      in
      let anchor =
        match context with
        | Some ctx -> anchor_match ctx ~name_sim ~vs va vb
        | None -> false
      in
      let df_str =
        match context with
        | Some ctx -> string_of_int (min (df_of ctx va) (df_of ctx vb))
        | None -> "-"
      in
      let clip s = if String.length s > 30 then String.sub s 0 27 ^ "..." else s in
      add "  vs=%.2f name=%.2f w=%.2f df=%s%s  %s=%S ~ %s=%S\n" vs name_sim w
        df_str
        (if anchor then " ANCHOR" else "")
        attr_a (clip va) attr_b (clip vb))
    (field_matches a b);
  add "similarity = %.3f\n" (similarity ?context a b);
  Buffer.contents buf
