open Aladin_links
module Tx = Aladin_text
module Pool = Aladin_par.Pool

type params = {
  min_similarity : float;
  all_pairs : bool;
}

let default_params = { min_similarity = 0.78; all_pairs = false }

(* a blocking key shared by more objects than this is not specific
   enough to block on *)
let max_block_size = 50

type result = {
  links : Link.t list;
  clusters : string list list;
  candidates_checked : int;
}

let result_of_links ~candidates_checked links =
  let uf = Union_find.create () in
  List.iter
    (fun (l : Link.t) ->
      Union_find.union uf (Objref.to_string l.src) (Objref.to_string l.dst))
    links;
  { links; clusters = Union_find.clusters uf; candidates_checked }

let looks_like_accession s =
  let n = String.length s in
  n >= 4 && n <= 15
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' || c = ':')
       s
  && String.exists (fun c -> c >= '0' && c <= '9') s

(* symbol-shaped token: mixed letters+digits, the shape of gene names and
   accessions — rare enough to block on even inside long text *)
let symbolish tok =
  let n = String.length tok in
  n >= 4 && n <= 12
  && String.exists (fun c -> c >= '0' && c <= '9') tok
  && String.exists (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) tok

let blocking_keys (r : Object_sim.repr) =
  let keys = ref [ "acc:" ^ String.lowercase_ascii r.obj.Objref.accession ] in
  List.iter
    (fun (_, v) ->
      (* lowercase before deriving ANY key: "BRCA1" and "brca1" must land
         in the same block or the duplicate pair is never even considered *)
      let v = String.lowercase_ascii v in
      if looks_like_accession v then keys := ("acc:" ^ v) :: !keys
      else if String.length v < 25 then
        List.iter
          (fun tok ->
            if String.length tok >= 4 && not (Tx.Tokenize.stopword tok) then
              keys := ("tok:" ^ tok) :: !keys)
          (Tx.Tokenize.words v)
      else
        (* long text: only symbol-shaped tokens (embedded entity names) *)
        List.iter
          (fun tok -> if symbolish tok then keys := ("tok:" ^ tok) :: !keys)
          (Tx.Tokenize.words v))
    r.fields;
  List.sort_uniq String.compare !keys

(* contiguous slices of near-equal size, in order *)
let slices nshards xs =
  let n = List.length xs in
  if nshards <= 1 || n <= 1 then [ xs ]
  else begin
    let per = (n + nshards - 1) / nshards in
    let rec take k acc = function
      | [] -> (List.rev acc, [])
      | rest when k = 0 -> (List.rev acc, rest)
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let rec go xs acc =
      match xs with
      | [] -> List.rev acc
      | _ ->
          let s, rest = take per [] xs in
          go rest (s :: acc)
    in
    go xs []
  end

(* Candidate generation over the reprs array and each object's blocking
   keys; pairs are index pairs (i, j) with i < j, sorted — a canonical
   form that no longer depends on hash-table iteration order, which also
   makes the sharded parallel run trivially equal to the sequential one. *)
let candidate_index_pairs ?pool params (reprs : Object_sim.repr array)
    (keys : string list array) =
  let n = Array.length reprs in
  let source_of i = reprs.(i).Object_sim.obj.Objref.source in
  if params.all_pairs then begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      for j = n - 1 downto i + 1 do
        if source_of i <> source_of j then out := (i, j) :: !out
      done
    done;
    !out
  end
  else begin
    let blocks : (string, int list ref) Hashtbl.t = Hashtbl.create 256 in
    Array.iteri
      (fun i ks ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt blocks key with
            | Some members -> members := i :: !members
            | None -> Hashtbl.add blocks key (ref [ i ]))
          ks)
      keys;
    (* deterministic block order (sorted keys), oversized blocks dropped *)
    let usable =
      Hashtbl.fold
        (fun key members acc ->
          let ms = !members in
          if List.length ms <= max_block_size then (key, ms) :: acc
          else acc)
        blocks []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    (* shard blocks across the pool; each shard keeps a LOCAL seen table
       (no shared mutable state inside the fan-out) and emits its pairs in
       block order *)
    let nshards =
      match pool with None -> 1 | Some p -> max 1 (Pool.size p * 4)
    in
    let shard_pairs =
      Pool.map ?pool
        (fun shard ->
          let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
          let out = ref [] in
          List.iter
            (fun (_, members) ->
              (* members are in descending index order; orientation is
                 canonicalized to (min, max) so it does not matter *)
              let rec pairs = function
                | [] -> ()
                | a :: rest ->
                    List.iter
                      (fun b ->
                        if source_of a <> source_of b then begin
                          let ij = if a < b then (a, b) else (b, a) in
                          if not (Hashtbl.mem seen ij) then begin
                            Hashtbl.add seen ij ();
                            out := ij :: !out
                          end
                        end)
                      rest;
                    pairs rest
              in
              pairs members)
            shard;
          !out)
        (slices nshards usable)
    in
    (* deterministic merge at the join: concatenate in shard order, then a
       global sort+dedup removes the pairs two shards both produced *)
    List.sort_uniq compare (List.concat shard_pairs)
  end

(* one object ready for detection in any source pair: its prepared fields
   and its blocking keys, neither of which depends on the other objects *)
type entry = { prep : Object_sim.prepared; keys : string list }

type prepared_source = entry list

let prepare_reprs ?pool reprs =
  (* one token list per attribute name, shared by every field carrying
     it; filled before the fan-out and only read inside it *)
  let names = Hashtbl.create 64 in
  List.iter
    (fun (r : Object_sim.repr) ->
      List.iter
        (fun (attr, _) ->
          if not (Hashtbl.mem names attr) then
            Hashtbl.add names attr (Field_sim.name_tokens attr))
        r.fields)
    reprs;
  Pool.map ?pool
    (fun r ->
      {
        prep = Object_sim.prepare ~name_tokens:(Hashtbl.find names) r;
        keys = blocking_keys r;
      })
    reprs

(* the one detection core: objects sorted by Objref *)
let detect_prepared ?(params = default_params) ?pool entries =
  let prepared = List.map (fun e -> e.prep) entries in
  let arr = Array.of_list (List.map Object_sim.repr_of_prepared prepared) in
  (* df statistics are local to the objects compared together, so they
     are bound here, once per object, never inside the pairwise fan-out *)
  let context = Object_sim.context_of_prepared prepared in
  let bound = Array.of_list (List.map (Object_sim.bind ~context) prepared) in
  let pairs =
    candidate_index_pairs ?pool params arr
      (Array.of_list (List.map (fun e -> e.keys) entries))
  in
  (* similarity only reads prepared data, so it fans out; link building
     stays sequential in pair order. A pair that cannot agree on an
     identifying value scores at most 0.5, so above that threshold it is
     not scored (None). *)
  let bounded = params.min_similarity > 0.5 in
  let sims =
    Pool.map ?pool
      (fun (i, j) ->
        if bounded && not (Object_sim.may_agree bound.(i) bound.(j)) then None
        else Some (Object_sim.similarity_prepared bound.(i) bound.(j)))
      pairs
  in
  Aladin_obs.Trace.ambient_incr
    ~by:(List.length (List.filter Option.is_none sims))
    "dup.candidates_skipped";
  let links =
    List.filter_map
      (fun ((i, j), sim) ->
        match sim with
        | None -> None
        | Some sim when sim < params.min_similarity -> None
        | Some sim ->
          let a = arr.(i) and b = arr.(j) in
          Some
            (Link.make ~src:a.Object_sim.obj ~dst:b.Object_sim.obj
               ~kind:Link.Duplicate ~confidence:sim
               ~evidence:(Printf.sprintf "object similarity %.2f" sim)))
      (List.combine pairs sims)
  in
  result_of_links ~candidates_checked:(List.length pairs) (Link.dedup links)

let detect_on ?params reprs = detect_prepared ?params (prepare_reprs reprs)

(* --- pairwise entry points (delta pipeline) --- *)

let prep_source ?pool ?exclude_attributes profiles ~source =
  prepare_reprs ?pool
    (Object_sim.build_reprs ?exclude_attributes
       (Profile_list.restrict profiles [ source ]))

let detect_between ?params ?pool a b =
  (* each source is sorted by object (build_reprs' contract), so the
     sorted merge is exactly what build_reprs over the two-source
     restriction would return *)
  let cmp x y =
    Objref.compare (Object_sim.repr_of_prepared x.prep).obj
      (Object_sim.repr_of_prepared y.prep).obj
  in
  detect_prepared ?params ?pool (List.merge cmp a b)

let explain reprs links =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun (o : Object_sim.repr) ->
      Hashtbl.replace by_key (Objref.to_string o.obj) o)
    reprs;
  (* detection scored each link under the df context of its two sources *)
  let contexts = Hashtbl.create 8 in
  let context_of_pair sa sb =
    match Hashtbl.find_opt contexts (sa, sb) with
    | Some ctx -> ctx
    | None ->
        let ctx =
          Object_sim.context_of
            (List.filter
               (fun (o : Object_sim.repr) ->
                 o.obj.source = sa || o.obj.source = sb)
               reprs)
        in
        Hashtbl.add contexts (sa, sb) ctx;
        ctx
  in
  List.filter_map
    (fun (l : Link.t) ->
      match
        ( Hashtbl.find_opt by_key (Objref.to_string l.src),
          Hashtbl.find_opt by_key (Objref.to_string l.dst) )
      with
      | Some a, Some b ->
          let context = context_of_pair l.src.source l.dst.source in
          Some (l, Object_sim.explain ~context a b)
      | _ -> None)
    links
