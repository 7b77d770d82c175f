type hit = {
  query_id : string;
  subject_id : string;
  raw_score : int;
  normalized : float;
  shared_kmers : int;
}

type t = {
  index : Kmer_index.t;
  matrix : Subst_matrix.t;
  min_hits : int;
  self_scores : (string, int) Hashtbl.t;  (* id -> self-alignment score *)
}

let default_k = function
  | Alphabet.Dna | Alphabet.Rna -> 11
  | Alphabet.Protein -> 4

let create ?k ?(min_hits = 2) kind =
  let k = Option.value k ~default:(default_k kind) in
  { index = Kmer_index.create ~k; matrix = Subst_matrix.for_kind kind; min_hits;
    self_scores = Hashtbl.create 64 }

let add t ~id s =
  Kmer_index.add t.index ~id s;
  (* score the normalized sequence the index stores *)
  Option.iter
    (fun s -> Hashtbl.replace t.self_scores id (Align.self_score t.matrix s))
    (Kmer_index.sequence t.index id)

let size t = Kmer_index.size t.index

(* The normalized score divides by the shorter sequence's self-score,
   the query's on tied lengths, so a pair's hit depends on which side
   is the query. *)
let verify t ~query_id ~query ~query_self ~subject_id ~shared_kmers
    ~min_normalized =
  match
    (Kmer_index.sequence t.index subject_id, Hashtbl.find_opt t.self_scores subject_id)
  with
  | Some subject, Some subject_self ->
      let raw = Align.local_score ~matrix:t.matrix query subject in
      let denom =
        if String.length query <= String.length subject then query_self
        else subject_self
      in
      let normalized =
        if denom <= 0 then 0.0 else float_of_int raw /. float_of_int denom
      in
      if normalized >= min_normalized then
        Some { query_id; subject_id; raw_score = raw; normalized; shared_kmers }
      else None
  | _ -> None

(* align a normalized query against the k-mer candidates [keep] admits,
   best hit first *)
let hits t ~query_id query ~keep ~min_normalized =
  let query_self = Align.self_score t.matrix query in
  let candidates =
    Kmer_index.candidates t.index ~min_hits:t.min_hits query
    |> List.filter (fun (id, _) -> keep id)
  in
  Aladin_obs.Trace.ambient_incr ~by:(List.length candidates) "seq.alignments";
  candidates
  |> List.filter_map (fun (subject_id, shared_kmers) ->
         verify t ~query_id ~query ~query_self ~subject_id ~shared_kmers
           ~min_normalized)
  |> List.sort (fun a b -> Float.compare b.normalized a.normalized)

let search t ~query_id query ~min_normalized =
  hits t ~query_id (Alphabet.normalize query)
    ~keep:(fun id -> id <> query_id)
    ~min_normalized

let all_pairs ?pool t ~min_normalized =
  let ids = List.sort String.compare (Kmer_index.ids t.index) in
  (* per-query searches only read the index, so they can fan out; each
     unordered pair is aligned once, from its smaller id *)
  Aladin_par.Pool.map ?pool
    (fun query_id ->
      match Kmer_index.sequence t.index query_id with
      | None -> []
      | Some q ->
          hits t ~query_id q ~keep:(fun id -> query_id < id) ~min_normalized)
    ids
  |> List.concat
