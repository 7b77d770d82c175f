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

(* shared k-mers a pair needs before it is aligned *)
let default_min_hits = 2

let create ?k ?(min_hits = default_min_hits) kind =
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
let score matrix ~query ~query_self ~subject ~subject_self =
  let raw = Align.local_score ~matrix query subject in
  let denom =
    if String.length query <= String.length subject then query_self
    else subject_self
  in
  (raw, if denom <= 0 then 0.0 else float_of_int raw /. float_of_int denom)

let verify t ~query_id ~query ~query_self ~subject_id ~shared_kmers
    ~min_normalized =
  match
    (Kmer_index.sequence t.index subject_id, Hashtbl.find_opt t.self_scores subject_id)
  with
  | Some subject, Some subject_self ->
      let raw, normalized =
        score t.matrix ~query ~query_self ~subject ~subject_self
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

let all_pairs ?pool ?(keep = fun _ _ -> true) t ~min_normalized =
  let ids = List.sort String.compare (Kmer_index.ids t.index) in
  (* per-query searches only read the index, so they can fan out; each
     unordered pair is aligned once, from its smaller id *)
  Aladin_par.Pool.map ?pool
    (fun query_id ->
      match Kmer_index.sequence t.index query_id with
      | None -> []
      | Some q ->
          hits t ~query_id q
            ~keep:(fun id -> query_id < id && keep query_id id)
            ~min_normalized)
    ids
  |> List.concat

(* --- one-shot probe index ---

   Built once over a fixed array of normalized sequences, whose
   positions are their ids, and only read afterwards, so probes can run
   on any domain. Each distinct k-mer's posting carries a slot number:
   a probe sorts the postings it found by slot, so a k-mer it repeats
   counts once, and adds every distinct posting's ids into an int array
   of shared k-mer counts. *)

type posting = { slot : int; mutable ids : int list  (* descending *) }

type probe_index = {
  k : int;
  pmatrix : Subst_matrix.t;
  seqs : string array;
  selfs : int array;
  postings : (string, posting) Hashtbl.t;
}

type probe_hit = { id : int; score : int; norm : float }

let probe_index kind seqs =
  let k = default_k kind and matrix = Subst_matrix.for_kind kind in
  let postings = Hashtbl.create 1024 in
  Array.iteri
    (fun id s ->
      for i = 0 to String.length s - k do
        let km = String.sub s i k in
        match Hashtbl.find postings km with
        | p -> (
            (* ids arrive in ascending order: a head equal to [id] is a
               k-mer this sequence repeats *)
            match p.ids with
            | last :: _ when last = id -> ()
            | ids -> p.ids <- id :: ids)
        | exception Not_found ->
            Hashtbl.add postings km
              { slot = Hashtbl.length postings; ids = [ id ] }
      done)
    seqs;
  { k; pmatrix = matrix; seqs;
    selfs = Array.map (Align.self_score matrix) seqs; postings }

let probe ix ~probe_is_query ~keep p ~min_normalized =
  let found = ref [] in
  for i = 0 to String.length p - ix.k do
    match Hashtbl.find ix.postings (String.sub p i ix.k) with
    | posting -> found := posting :: !found
    | exception Not_found -> ()
  done;
  let counts = Array.make (Array.length ix.seqs) 0 in
  List.iter
    (fun posting ->
      List.iter (fun id -> counts.(id) <- counts.(id) + 1) posting.ids)
    (List.sort_uniq (fun a b -> Int.compare a.slot b.slot) !found);
  let p_self = Align.self_score ix.pmatrix p in
  let alignments = ref 0 and hits = ref [] in
  Array.iteri
    (fun id c ->
      if c >= default_min_hits && keep id then begin
        incr alignments;
        let s = ix.seqs.(id) and s_self = ix.selfs.(id) in
        let raw, norm =
          if probe_is_query then
            score ix.pmatrix ~query:p ~query_self:p_self ~subject:s
              ~subject_self:s_self
          else
            score ix.pmatrix ~query:s ~query_self:s_self ~subject:p
              ~subject_self:p_self
        in
        if norm >= min_normalized then
          hits := { id; score = raw; norm } :: !hits
      end)
    counts;
  Aladin_obs.Trace.ambient_incr ~by:!alignments "seq.alignments";
  List.rev !hits
